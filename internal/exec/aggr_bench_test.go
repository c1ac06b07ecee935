package exec

import (
	"math/rand"
	"testing"
)

// BenchmarkHashAggrGroups times HashAggr.add on one resident Q1-shaped
// vector, in ns per tuple, once per group-id path: direct with Q1's
// one-byte keys, map with the same keys widened to two bytes, which the
// direct table refuses.
func BenchmarkHashAggrGroups(b *testing.B) {
	base := randBatch(rand.New(rand.NewSource(1)), VectorSize, 40)
	for _, c := range []struct {
		name  string
		width int
	}{{"direct", 1}, {"map", 2}} {
		in := q1Shaped(cloneBatch(base), c.width)
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
}
