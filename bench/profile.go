package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
)

// cpuLayers are the modules with a <module>.cpu_s metric of their own.
var cpuLayers = []string{
	"sim", "rt", "iosim", "storage", "buffer", "pbm", "abm", "exec",
	"minmax", "pdt", "sched", "workload", "server", "wire",
}

type cpuProfile struct {
	byLayer map[string]float64 // CPU seconds
	total   float64
}

type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

func (p *profiler) stop() (*cpuProfile, error) {
	pprof.StopCPUProfile()
	return attribute(p.buf.Bytes())
}

// layerOf charges one sample, given its stack leaf first, to a layer: the
// deepest frame of a repo module wins, so allocator and GC-assist work
// counts for the layer that caused it. Stacks with no repo frame are the
// HTTP stack's if net/http, encoding/json or the socket path is on them,
// the Go runtime's otherwise.
func layerOf(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "repro/internal/"):
			mod := fn[len("repro/internal/"):]
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			for _, l := range cpuLayers {
				if mod == l {
					return l
				}
			}
			if mod == "trace" {
				return "bench" // the page-reference recorder is tracing cost
			}
			return "other"
		case strings.HasPrefix(fn, "repro/wire."):
			return "wire"
		case strings.HasPrefix(fn, "main."):
			return "bench"
		case strings.HasPrefix(fn, "repro."):
			return "other"
		}
	}
	for _, fn := range stack {
		for _, p := range []string{"net/http", "net.", "encoding/json.", "syscall.", "internal/poll.", "bufio."} {
			if strings.HasPrefix(fn, p) {
				return "nethttp"
			}
		}
	}
	return "goruntime"
}

func setCPULayers(res *result, cpu *cpuProfile) {
	var sum float64
	for _, l := range append([]string{"goruntime", "nethttp", "bench", "other"}, cpuLayers...) {
		res.set(l+".cpu_s", cpu.byLayer[l])
		sum += cpu.byLayer[l]
	}
	if d := sum - cpu.total; d > 0.02*cpu.total || d < -0.02*cpu.total {
		res.fail("cpu attribution: layers sum to %.3fs, profile total is %.3fs", sum, cpu.total)
	}
}

// attribute reads a pprof CPU profile (gzipped protobuf) and sums its
// samples per layer. It decodes only the tables it needs — samples,
// locations, functions, strings — which keeps the benchmark free of a
// dependency on `go tool pprof`.
func attribute(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs []uint64
		nano int64
	}
	var (
		samples   []sample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.nano = int64(vals[len(vals)-1]) // CPU profiles carry [samples, nanoseconds]
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := &cpuProfile{byLayer: map[string]float64{}}
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if i := funcNames[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		sec := float64(s.nano) / 1e9
		out.byLayer[layerOf(stack)] += sec
		out.total += sec
	}
	return out, nil
}

// eachField walks one protobuf message, calling f with each field's
// number and its varint value or length-delimited bytes.
func eachField(b []byte, f func(num int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			if err := f(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as one
// value or as a packed run.
func appendPacked(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		v, n := uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, v)
		packed = packed[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// procSample is the Go runtime's own accounting at one instant.
type procSample struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	p := procSample{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		p.totalCPU = s[1].Value.Float64()
	}
	return p
}

// setRuntime reports the Go runtime's cost over a window of the given
// number of queries. It forces a collection first, so live_heap_mb is
// what survives: the number that grows if the program leaks with its
// lifetime.
func setRuntime(res *result, before, after procSample, queries float64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.set("goruntime.live_heap_mb", float64(ms.HeapAlloc)/(1<<20))
	res.set("goruntime.goroutines_end", float64(runtime.NumGoroutine()))
	if queries > 0 {
		res.set("goruntime.allocs_per_query", float64(after.mallocs-before.mallocs)/queries)
		res.set("goruntime.alloc_kb_per_query", float64(after.allocBytes-before.allocBytes)/1024/queries)
	}
	if d := after.totalCPU - before.totalCPU; d > 0 {
		res.set("goruntime.gc_cpu_share", (after.gcCPU-before.gcCPU)/d)
	}
}
