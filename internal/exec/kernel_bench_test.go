package exec

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// BenchmarkHashAggrGroups times HashAggr.add on one resident Q1-shaped
// vector, in ns per tuple, once per group-id path: coded with Q1's
// one-byte keys carrying their codes, as a scan hands them on, direct
// with the same keys as strings alone, map with the keys widened to two
// bytes, which the direct table refuses. first is a fresh aggregate
// opened and fed one coded vector, so every group it meets is new: the
// cost of opening groups, which a query pays once per scan.
func BenchmarkHashAggrGroups(b *testing.B) {
	base := randBatch(rand.New(rand.NewSource(1)), VectorSize, 40)
	for _, c := range []struct {
		name  string
		width int
		codes bool
	}{{"coded", 1, true}, {"direct", 1, false}, {"map", 2, false}} {
		in := q1Shaped(cloneBatch(base), c.width)
		if c.codes {
			withCodes(in)
		}
		b.Run(c.name, func(b *testing.B) {
			aggr := &HashAggr{Child: &batchSource{types: kernelTypes, b: in}, Groups: []int{4, 5}, Aggs: q1Aggs}
			aggr.Open()
			aggr.add(in, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				aggr.add(in, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*in.N), "ns/tuple")
		})
	}
	in := withCodes(q1Shaped(cloneBatch(base), 1))
	b.Run("first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			aggr := &HashAggr{Child: &batchSource{types: kernelTypes, b: in}, Groups: []int{4, 5}, Aggs: q1Aggs}
			aggr.Open()
			aggr.add(in, nil)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*in.N), "ns/tuple")
	})
}

// BenchmarkSelect times a predicate narrowing a whole vector, in ns per
// tuple, at four selectivities: an int64 <= and a float64 >= with a
// literal, and an InStr over the same numbers as strings, over shuffled
// vectors of 0..VectorSize-1, so a filter keeps exactly its share of
// tuples in no predictable order. It cycles through 64 vectors, more than
// a branch predictor learns by heart. The comparison rows should be about
// equal; a filter whose cost peaks near 50% is paying for mispredicted
// branches.
func BenchmarkSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ins := make([]*Batch, 64)
	for k := range ins {
		in := NewBatch(kernelTypes)
		for _, x := range rng.Perm(VectorSize) {
			in.Vecs[0].I64 = append(in.Vecs[0].I64, int64(x))
			in.Vecs[2].F64 = append(in.Vecs[2].F64, float64(x))
			in.Vecs[4].Str = append(in.Vecs[4].Str, strconv.Itoa(x))
		}
		in.N = VectorSize
		ins[k] = in
	}
	for _, pct := range []int{1, 15, 50, 98} {
		cut := VectorSize * pct / 100
		set := make(map[string]bool, cut)
		for x := 0; x < cut; x++ {
			set[strconv.Itoa(x)] = true
		}
		for _, c := range []struct {
			name string
			pred Expr
		}{
			{"int64<=", NewCmp("<=", col(0), ConstI(cut-1))},
			{"float64>=", NewCmp(">=", col(2), ConstF(float64(VectorSize-cut)))},
			{"InStr", InStr(4, set)},
		} {
			b.Run(fmt.Sprintf("%s/sel=%d%%", c.name, pct), func(b *testing.B) {
				var sel []int32
				var scratch Vec
				for i := 0; i < b.N; i++ {
					in := ins[i%len(ins)]
					sel = identity(sel, in.N)
					narrow(c.pred, in, sel, &scratch)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*VectorSize), "ns/tuple")
			})
		}
	}
}
