package exec_test

import (
	"testing"
	"time"

	"repro/internal/abm"
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
	drain, n := realDrain(tpch.Generate(0.02, 1), tpch.Q6, 1)
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

// TestFidelityRealWorkNetsModelledCPU: a scan thread's real work is the
// CPU time the model charges it, so it pays the charge rather than
// adding to it. With PerTupleCPU calibrated to the measured real work of
// a Q1 drain, modelled ≈ work, and a drain charged that must take no
// longer than its modelled time plus half the real work plus three
// quanta — and never less than its modelled time. Charging the model on
// top of the real work takes about twice the modelled time. The Q1 plan
// scans the table eight times over, so the real work is large against
// the three quanta.
func TestFidelityRealWorkNetsModelledCPU(t *testing.T) {
	const reps = 8
	drain, n := realDrain(tpch.Generate(0.02, 1), tpch.Q1, reps)
	drain(0) // every page resident from here on

	var work, charged time.Duration
	for i := 0; i < 3; i++ {
		if d := drain(0); work == 0 || d < work {
			work = d
		}
	}
	perTuple := max(work/time.Duration(reps*n), 1)
	for i := 0; i < 3; i++ {
		if d := drain(perTuple); charged == 0 || d < charged {
			charged = d
		}
	}
	modelled := time.Duration(reps*n) * perTuple
	if charged < modelled {
		t.Fatalf("%d tuples charged %v finished in %v: under-charged", reps*n, modelled, charged)
	}
	if over, limit := charged-modelled, work/2+3*time.Millisecond; over > limit {
		t.Fatalf("took %v for %v modelled at %v a tuple: %v over, above half the real work %v + 3 quanta", charged, modelled, perTuple, over, work)
	}
}

// realDrain builds a resident pool over db on the real runtime and
// returns a drain of plan over the whole lineitem table, reps times over,
// charged cpu a tuple on one modelled core, that reports its wall time;
// and the table's tuple count.
func realDrain(db *tpch.DB, plan func([]exec.RIDRange) tpch.Plan, reps int) (func(cpu time.Duration) time.Duration, int64) {
	r := rt.NewReal()
	disk := iosim.New(r, iosim.Config{Bandwidth: 10e9, SeekLatency: time.Microsecond})
	pool := buffer.NewPool(r, disk, buffer.NewLRU(), 1<<30)
	ctx := &exec.Ctx{RT: r, CPU: exec.NewCPU(r, 1), Pool: pool, ReadAheadTuples: 16384}
	n := db.Snapshot("lineitem").NumTuples()
	ranges := make([]exec.RIDRange, reps)
	for i := range ranges {
		ranges[i] = exec.RIDRange{Lo: 0, Hi: n}
	}
	return func(cpu time.Duration) time.Duration {
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
		exec.Drain(plan(ranges)(db, build))
		return time.Since(start)
	}, n
}

// TestFidelityModelledDeviceTimeCScanOnRealRuntime is the same bound for
// the ABM's loader: a CScan over many cold chunks on the real runtime,
// each chunk's load costing less than one pacing quantum of device time,
// must take no longer than the device's modelled busy time plus the real
// work (the same CScan over the chunks once resident) plus three quanta.
// A timer sleep per chunk load misses that by the timer's overshoot per
// chunk. Best of three cold runs against worst of three warm ones plus a
// tenth, as above.
func TestFidelityModelledDeviceTimeCScanOnRealRuntime(t *testing.T) {
	db := tpch.Generate(0.05, 1)
	snap := db.Snapshot("lineitem")
	var cols []int
	for _, c := range []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"} {
		cols = append(cols, db.Col("lineitem", c))
	}
	ranges := []exec.RIDRange{{Lo: 0, Hi: snap.NumTuples()}}
	// A 2048-tuple chunk of four 8-byte columns is four 16 KiB pages:
	// 0.33 ms at 200 MB/s, plus the seek.
	const chunkTuples = 2048
	var cold, work, busy time.Duration
	for i := 0; i < 3; i++ {
		r := rt.NewReal()
		disk := iosim.NewArray(r, iosim.ArrayConfig{Config: iosim.Config{Bandwidth: 200e6, SeekLatency: 50 * time.Microsecond}})
		a := abm.New(r, disk, abm.Config{ChunkTuples: chunkTuples, Capacity: 1 << 30})
		ctx := &exec.Ctx{RT: r, ABM: a}
		drain := func() time.Duration {
			start := time.Now()
			exec.Drain(ctx.NewScan(snap, cols, ranges, nil, nil))
			return time.Since(start)
		}
		if d := drain(); cold == 0 || d < cold {
			cold, busy = d, time.Duration(disk.Stats().BusyTime)
		}
		if d := drain(); d > work {
			work = d
		}
		if loads := a.Stats().ChunksLoaded; loads < 48 {
			t.Fatalf("%d chunk loads: too few for the bound to tell", loads)
		}
		a.Stop()
		r.Run()
	}
	if cold < busy-time.Millisecond {
		t.Fatalf("cold CScan finished in %v, under its %v of modelled device time", cold, busy)
	}
	if over, limit := cold-busy, work+work/10+3*time.Millisecond; over > limit {
		t.Fatalf("loader overhead %v (took %v for %v of device time) exceeds real work %v (+10%%) + 3 quanta", over, cold, busy, work)
	}
}
