package exec_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/exec"
	"repro/internal/iosim"
	"repro/internal/rt"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// benchQuery drains Q1 or Q6 (an external test package, so the real
// plans of internal/tpch can be used) over a resident sf 0.01 lineitem on
// the real runtime, no modelled cost: ns/tuple is the engine's own work
// per scanned tuple. frac is the share of the table each run covers.
func benchQuery(b *testing.B, plan func([]exec.RIDRange) tpch.Plan) {
	db := tpch.Generate(0.01, 1)
	r := rt.NewReal()
	disk := iosim.New(r, iosim.Config{Bandwidth: 10e9, SeekLatency: time.Microsecond})
	ctx := &exec.Ctx{RT: r, Pool: buffer.NewPool(r, disk, buffer.NewLRU(), 1<<30), ReadAheadTuples: 8192}
	build := func(table string, cols []string, ranges []exec.RIDRange, _ bool) exec.Op {
		idx := make([]int, len(cols))
		for i, c := range cols {
			idx[i] = db.Col(table, c)
		}
		return &exec.Scan{Ctx: ctx, Snap: db.Snapshot(table), Cols: idx, Ranges: ranges}
	}
	n := db.Snapshot("lineitem").NumTuples()
	exec.Drain(plan([]exec.RIDRange{{Lo: 0, Hi: n}})(db, build)) // loads every page
	for _, pct := range []int64{10, 100} {
		b.Run(fmt.Sprintf("range=%d%%", pct), func(b *testing.B) {
			span := n * pct / 100
			var tuples int64
			for i := 0; i < b.N; i++ {
				lo := int64(i) * span % (n - span + 1)
				exec.Drain(plan([]exec.RIDRange{{Lo: lo, Hi: lo + span}})(db, build))
				tuples += span
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tuples), "ns/tuple")
		})
	}
}

func BenchmarkQ1(b *testing.B) { benchQuery(b, tpch.Q1) }
func BenchmarkQ6(b *testing.B) { benchQuery(b, tpch.Q6) }

// BenchmarkHashAggrFold times HashAggr's fold — the counts and the five
// float sums of Q1's groups, group ids already found — over Q1's
// projection of the sf 0.01 lineitem in generated order, where most
// consecutive tuples share a group, through Q1's shipdate filter: ns per
// folded tuple. runs is fold, which adds group by group; tuples is the
// reference loop it replaced, which adds each tuple into its group's row
// in memory.
func BenchmarkHashAggrFold(b *testing.B) {
	db := tpch.Generate(0.01, 1)
	snap := db.Snapshot("lineitem")
	n := snap.NumTuples()
	col := func(name string) int { return db.Col("lineitem", name) }
	rf := snap.ReadString(col("l_returnflag"), 0, n, nil)
	ls := snap.ReadString(col("l_linestatus"), 0, n, nil)
	qty := snap.ReadFloat64(col("l_quantity"), 0, n, nil)
	price := snap.ReadFloat64(col("l_extendedprice"), 0, n, nil)
	disc := snap.ReadFloat64(col("l_discount"), 0, n, nil)
	tax := snap.ReadFloat64(col("l_tax"), 0, n, nil)
	ship := snap.ReadInt64(col("l_shipdate"), 0, n, nil)
	var batches []*exec.Batch
	var sels [][]int32
	folded := 0
	for lo := 0; lo < int(n); lo += exec.VectorSize {
		hi := min(lo+exec.VectorSize, int(n))
		in := exec.NewBatch([]storage.ColumnType{storage.String, storage.String,
			storage.Float64, storage.Float64, storage.Float64, storage.Float64, storage.Float64})
		var sel []int32
		for i := lo; i < hi; i++ {
			dp := price[i] * (1 - disc[i])
			for c, x := range []float64{qty[i], price[i], dp, dp * (1 + tax[i]), disc[i]} {
				in.Vecs[2+c].F64 = append(in.Vecs[2+c].F64, x)
			}
			in.Vecs[0].Str, in.Vecs[1].Str = append(in.Vecs[0].Str, rf[i]), append(in.Vecs[1].Str, ls[i])
			if ship[i] <= tpch.DateMax-90 {
				sel = append(sel, int32(i-lo))
			}
		}
		in.N = hi - lo
		batches, sels = append(batches, in), append(sels, sel)
		folded += len(sel)
	}
	aggs := []exec.AggSpec{
		{Kind: exec.AggSum, Col: 2}, {Kind: exec.AggSum, Col: 3}, {Kind: exec.AggSum, Col: 4}, {Kind: exec.AggSum, Col: 5},
		{Kind: exec.AggAvg, Col: 2}, {Kind: exec.AggAvg, Col: 3}, {Kind: exec.AggAvg, Col: 6}, {Kind: exec.AggCount},
	}
	for _, c := range []struct {
		name string
		ref  bool
	}{{"runs", false}, {"tuples", true}} {
		b.Run(c.name, func(b *testing.B) {
			fold := exec.FoldBatches([]int{0, 1}, aggs, batches, sels, c.ref)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fold()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*folded), "ns/tuple")
		})
	}
}
