package exec_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/exec"
	"repro/internal/iosim"
	"repro/internal/rt"
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
