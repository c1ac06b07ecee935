package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/storage"
)

// scanColumns is the column set a "scan" request streams, in order.
var scanColumns = []string{
	"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
	"l_discount", "l_tax", "l_shipdate",
}

// kernelStride is 1 (every input) except under the race detector, whose
// instrumentation makes an exhaustive pass too slow for CI's Kernels step.
var kernelStride uint64 = 1

// encodeColumn encodes one single-column row per value of vals, an
// []int64 or a []float64, and returns the rendered values.
func encodeColumn[T int64 | float64](vals []T) []string {
	var rows []string
	for len(vals) > 0 {
		n := min(len(vals), exec.VectorSize)
		var b *exec.Batch
		switch vs := any(vals[:n]).(type) {
		case []int64:
			b = exec.NewBatch([]storage.ColumnType{storage.Int64})
			b.Vecs[0].I64 = vs
		case []float64:
			b = exec.NewBatch([]storage.ColumnType{storage.Float64})
			b.Vecs[0].F64 = vs
		}
		b.N = n
		for _, r := range strings.Split(strings.TrimSuffix(string(encodeBatch(nil, b)), "\n"), "\n") {
			rows = append(rows, r[1:len(r)-1])
		}
		vals = vals[n:]
	}
	return rows
}

// lineitemBatches reads the "scan" columns of the shared sf 0.01 table
// in vectors, as the serving scan hands them to the encoder.
func lineitemBatches(tb testing.TB) []*exec.Batch {
	tb.Helper()
	snap := db().Snapshot("lineitem")
	schema := snap.Table().Schema
	cols := make([]int, len(scanColumns))
	types := make([]storage.ColumnType, len(scanColumns))
	for i, c := range scanColumns {
		cols[i] = db().Col("lineitem", c)
		types[i] = schema[cols[i]].Type
	}
	var out []*exec.Batch
	for lo := int64(0); lo < snap.NumTuples(); lo += exec.VectorSize {
		hi := min(lo+exec.VectorSize, snap.NumTuples())
		b := exec.NewBatch(types)
		for i, v := range b.Vecs {
			switch v.T {
			case storage.Int64:
				v.I64 = snap.ReadInt64(cols[i], lo, hi, make([]int64, 0, hi-lo))
			case storage.Float64:
				v.F64 = snap.ReadFloat64(cols[i], lo, hi, make([]float64, 0, hi-lo))
			default:
				v.Str = snap.ReadString(cols[i], lo, hi, make([]string, 0, hi-lo))
			}
		}
		b.N = int(hi - lo)
		out = append(out, b)
	}
	return out
}

// Edge values of each type: the fast paths' bounds on both sides, the
// values strconv alone renders, and strings of every escape class.
var (
	edgeInts = []int64{0, 1, 9, 10, 99, 100, 1e7 - 1, 1e7, 1e8 - 1, 1e8, 1e8 + 1, -1, -1e8 + 1, -1e8,
		math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}
	edgeFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		1e6, -1e6, 1e6 - 0.01, -(1e6 - 0.01), math.Nextafter(1e6, 0), 1e8, -1e8, 999999, -999999,
		123456.78, -123456.78, 100000.01, 999999.99, 0.01, -0.01, 0.05, 0.1, 0.1 + 0.2, 2.675, 1.005,
		1e-4, 1e-5, 0.001, 0.005, 1e21, 1e20, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		math.MaxInt64, math.MinInt64}
	edgeStrings = []string{"", "A", "N", "R", " ", "~", "\"", "\\", "\n", "\x00", "\x7f", "\xff", "é",
		"lineitem comment", `quo"te`, `back\slash`, "tab\t", "\b\f\r", "bell\a vt\v", "réf", "日本",
		"\u2028\u2029", "\ufffd", "\xe2\x80", "\xed\xa0\x80", "<&>", string(bytes.Repeat([]byte("xy"), 150))}
)

// randBatch returns n rows of one to six columns of random types, each
// value an edge value or drawn from a range one fast path covers (or
// just misses).
func randBatch(rng *rand.Rand, n int) *exec.Batch {
	types := make([]storage.ColumnType, 1+rng.Intn(6))
	for i := range types {
		types[i] = []storage.ColumnType{storage.Int64, storage.Float64, storage.String}[rng.Intn(3)]
	}
	b := exec.NewBatch(types)
	for i := 0; i < n; i++ {
		for _, v := range b.Vecs {
			switch v.T {
			case storage.Int64:
				v.I64 = append(v.I64, randInt(rng))
			case storage.Float64:
				v.F64 = append(v.F64, randFloat(rng))
			default:
				v.Str = append(v.Str, randString(rng))
			}
		}
	}
	b.N = n
	return b
}

func randInt(rng *rand.Rand) int64 {
	switch rng.Intn(5) {
	case 0:
		return edgeInts[rng.Intn(len(edgeInts))]
	case 1:
		return rng.Int63n(1e8)
	case 2:
		return rng.Int63n(1e4)
	case 3:
		return rng.Int63n(2e8) - 1e8
	}
	return int64(rng.Uint64())
}

func randFloat(rng *rand.Rand) float64 {
	cents := float64(rng.Int63n(2e8)-1e8) / 100
	switch rng.Intn(8) {
	case 0:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 1, 2:
		return cents
	case 3:
		return float64(rng.Int63n(1e8)+1e7) / 100 // nine-byte renderings, and past 1e6
	case 4:
		return math.Nextafter(cents, math.Inf(rng.Intn(2)*2-1))
	case 5:
		return float64(rng.Int63n(2e6) - 1e6)
	case 6:
		return math.Float64frombits(rng.Uint64() >> 12) // subnormal
	}
	return math.Float64frombits(rng.Uint64())
}

func randString(rng *rand.Rand) string {
	switch rng.Intn(4) {
	case 0:
		return edgeStrings[rng.Intn(len(edgeStrings))]
	case 1:
		return string(rune(' ' + rng.Intn(95)))
	case 2:
		return string([]byte{byte(rng.Intn(256))})
	}
	b := make([]byte, rng.Intn(40))
	for i := range b {
		b[i] = byte(' ' + rng.Intn(95))
		if rng.Intn(8) == 0 {
			b[i] = byte(rng.Intn(256))
		}
	}
	return string(b)
}

// encodeBoth encodes b with encodeBatch and with the reference, each
// appending to a fresh copy of prefix, so the reservation starts after
// output already in the buffer.
func encodeBoth(prefix []byte, b *exec.Batch) (got, want []byte) {
	return encodeBatch(append([]byte(nil), prefix...), b), refEncodeBatch(append([]byte(nil), prefix...), b)
}

// firstDiff describes where got and want part.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	return strconv.Quote(string(got[lo:min(i+40, len(got))])) + " want " + strconv.Quote(string(want[lo:min(i+40, len(want))]))
}

// TestDifferentialEncodeBatch holds encodeBatch byte for byte to the
// value-at-a-time encoder it replaced, on random batches of edge values
// and on every lineitem batch of the served scan columns.
func TestDifferentialEncodeBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	prefix := []byte("[1]\n")
	for i := 0; i < 400; i++ {
		b := randBatch(rng, rng.Intn(exec.VectorSize+1))
		if got, want := encodeBoth(prefix[:rng.Intn(len(prefix)+1)], b); !bytes.Equal(got, want) {
			t.Fatalf("random batch %d: %s", i, firstDiff(got, want))
		}
	}
	// A column of its type's widest renderings fills the reservation to
	// the byte: a bound too small for any type shows here.
	widest := []*exec.Vec{{T: storage.Int64}, {T: storage.Float64}, {T: storage.String}}
	for i := 0; i < exec.VectorSize; i++ {
		widest[0].I64 = append(widest[0].I64, math.MinInt64)
		widest[1].F64 = append(widest[1].F64, -math.Float64frombits(0x000fffffffffffff)) // -2.225073858507201e-308
		widest[2].Str = append(widest[2].Str, strings.Repeat("\x01", 40))                // each byte \u0001
	}
	for _, v := range widest {
		if got, want := encodeBoth(nil, &exec.Batch{N: exec.VectorSize, Vecs: []*exec.Vec{v}}); !bytes.Equal(got, want) {
			t.Fatalf("widest %v column: %s", v.T, firstDiff(got, want))
		}
	}
	batches := lineitemBatches(t)
	var buf []byte
	for i, b := range batches {
		buf = encodeBatch(buf[:0], b)
		if want := refEncodeBatch(nil, b); !bytes.Equal(buf, want) {
			t.Fatalf("lineitem batch %d: %s", i, firstDiff(buf, want))
		}
	}
	if len(batches) < 50 {
		t.Fatalf("%d lineitem batches, want the whole sf 0.01 table", len(batches))
	}
}

// TestKernelDigits8 checks the digit kernel on every input below 1e8,
// and the two fast paths built on it on every input below 1e5, at every
// digit-count boundary and on a 1-in-97 sample: an int64 x against
// strconv, and the double nearest x/100 against the reference.
func TestKernelDigits8(t *testing.T) {
	if testing.Short() {
		t.Skip("1e8 inputs")
	}
	var ints []int64
	var floats []float64
	for x := uint64(0); x < 1e8; x += kernelStride {
		d, y := digits8(x), uint64(0)
		for i := 0; i < 8; i++ {
			digit := d >> (8 * i) & 0xff
			if digit > 9 {
				t.Fatalf("digits8(%d) = %#x: byte %d is not a digit", x, d, i)
			}
			y = 10*y + digit
		}
		if y != x {
			t.Fatalf("digits8(%d) = %#x reads %d", x, d, y)
		}
		if x < 1e5 || x%97 == 0 || (x+1)%1e5 <= 2 {
			ints = append(ints, int64(x))
			floats = append(floats, float64(x)/100)
		}
	}
	for i, got := range encodeColumn(ints) {
		if want := strconv.FormatInt(ints[i], 10); got != want {
			t.Fatalf("int %d: %q", ints[i], got)
		}
	}
	var w []byte
	for i, got := range encodeColumn(floats) {
		if w = refAppendFloat(w[:0], floats[i]); got != string(w) {
			t.Fatalf("float %d/100: %q, want %q", ints[i], got, w)
		}
	}
}

// FuzzEncodeBatch turns arbitrary bytes into a batch and holds
// encodeBatch to the reference on it.
func FuzzEncodeBatch(f *testing.F) {
	f.Add([]byte{3, 0x24, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 2, 'A', 'B'})
	f.Add([]byte{1, 1, 1, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{4, 0x1b, 5, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 6, 7, 8, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Add([]byte{0, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := batchFromBytes(data)
		if got, want := encodeBoth([]byte("x"), b); !bytes.Equal(got, want) {
			t.Fatalf("%s", firstDiff(got, want))
		}
	})
}

// batchFromBytes decodes data as a batch: a column count and types, then
// rows until data runs out. A value's first byte picks how the bytes
// after it become a value, so the fuzzer reaches every fast path's
// bounds and not only random bit patterns.
func batchFromBytes(data []byte) *exec.Batch {
	next := func(n int) []byte {
		var b [8]byte
		n = copy(b[:n], data)
		data = data[n:]
		return b[:]
	}
	head := next(2)
	types := make([]storage.ColumnType, head[0]%5)
	for i := range types {
		types[i] = []storage.ColumnType{storage.Int64, storage.Float64, storage.String}[head[1]>>(2*i)&3%3]
	}
	b := exec.NewBatch(types)
	for len(data) > 0 && b.N < exec.VectorSize {
		if len(types) == 0 {
			next(1)
		}
		for _, v := range b.Vecs {
			mode := next(1)[0]
			switch v.T {
			case storage.Int64:
				x := int64(binary.LittleEndian.Uint64(next(8)))
				switch mode % 4 {
				case 1:
					x = x % 1e8
				case 2:
					x = 1e8 + x%16
				case 3:
					x = x % 10000
				}
				v.I64 = append(v.I64, x)
			case storage.Float64:
				u := binary.LittleEndian.Uint64(next(8))
				f := math.Float64frombits(u)
				switch mode % 4 {
				case 1:
					f = float64(int64(u%2e8)-1e8) / 100
				case 2:
					f = math.Nextafter(float64(int64(u%2e8)-1e8)/100, math.Inf(int(mode&4)-2))
				case 3:
					f = float64(int64(u%2e6) - 1e6)
				}
				v.F64 = append(v.F64, f)
			default:
				n := int(mode % 24)
				s := make([]byte, 0, n)
				for len(s) < n && len(data) > 0 {
					s = append(s, next(1)[0])
				}
				v.Str = append(v.Str, string(s))
			}
		}
		b.N++
	}
	return b
}

// BenchmarkEncodeBatch times encodeBatch into a grown buffer, per row:
// over the sf 0.01 lineitem table's "scan" columns, the served rows, and
// over one batch of mixed edge values, most of them off the fast paths.
func BenchmarkEncodeBatch(b *testing.B) {
	for _, bc := range []struct {
		name    string
		batches []*exec.Batch
	}{
		{"lineitem", lineitemBatches(b)},
		{"edges", []*exec.Batch{randBatch(rand.New(rand.NewSource(7)), exec.VectorSize)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var buf []byte
			for _, x := range bc.batches {
				buf = encodeBatch(buf[:0], x)
			}
			rows := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := bc.batches[i%len(bc.batches)]
				buf = encodeBatch(buf[:0], x)
				rows += x.N
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
		})
	}
}
