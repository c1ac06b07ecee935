package exec_test

import (
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/exec"
	"repro/internal/iosim"
	"repro/internal/rt"
	"repro/internal/tpch"
)

// TestFidelityModelledCPUOnRealRuntime is engine overhead — observed
// minus modelled, the benchmark's host.overhead_ms — as a test: a
// full-table Q6 on the real runtime over a resident pool, charged 60 ns a
// tuple, must take no longer than its modelled CPU time plus the real
// vector work (the same drain charged nothing) plus three pacing quanta
// (the residual at close, one timer overshoot, and slack). A sleep per
// 1024-tuple vector misses that by the timer's overshoot per vector, an
// order of magnitude. Best of three against worst of three plus a tenth
// (the real work's own spread, which -race multiplies), so a noisy box
// costs the test power, not a false alarm.
func TestFidelityModelledCPUOnRealRuntime(t *testing.T) {
	const perTuple = 60 * time.Nanosecond
	db := tpch.Generate(0.02, 1)
	r := rt.NewReal()
	disk := iosim.New(r, iosim.Config{Bandwidth: 10e9, SeekLatency: time.Microsecond})
	pool := buffer.NewPool(r, disk, buffer.NewLRU(), 1<<30)
	ctx := &exec.Ctx{RT: r, CPU: exec.NewCPU(r, 1), Pool: pool, ReadAheadTuples: 16384}
	n := db.Snapshot("lineitem").NumTuples()

	drain := func(cpu time.Duration) time.Duration {
		c := *ctx
		c.PerTupleCPU = cpu
		qctx := c.WithQuery(exec.NewQueryCtx(r))
		build := func(table string, cols []string, ranges []exec.RIDRange, _ bool) exec.Op {
			idx := make([]int, len(cols))
			for i, col := range cols {
				idx[i] = db.Col(table, col)
			}
			return &exec.Scan{Ctx: qctx, Snap: db.Snapshot(table), Cols: idx, Ranges: ranges}
		}
		start := time.Now()
		exec.Drain(tpch.Q6([]exec.RIDRange{{Lo: 0, Hi: n}})(db, build))
		return time.Since(start)
	}
	drain(0) // every page resident from here on

	var work, charged time.Duration
	for i := 0; i < 3; i++ {
		if d := drain(0); d > work {
			work = d
		}
		if d := drain(perTuple); charged == 0 || d < charged {
			charged = d
		}
	}
	modelled := time.Duration(n) * perTuple
	if charged < modelled {
		t.Fatalf("%d tuples charged %v finished in %v: under-charged", n, modelled, charged)
	}
	if over, limit := charged-modelled, work+work/10+3*time.Millisecond; over > limit {
		t.Fatalf("engine overhead %v (took %v for %v modelled) exceeds real work %v (+10%%) + 3 quanta", over, charged, modelled, work)
	}
}
