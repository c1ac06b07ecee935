package exec_test

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/abm"
	"repro/internal/buffer"
	"repro/internal/exec"
	"repro/internal/iosim"
	"repro/internal/pbm"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// simRun is everything a run on the simulator shows: the answer of each
// query, and the simulation itself — its final clock, the processes it
// picked to run, every page access with its instant, and the pool's, the
// ABM's and the device's counters.
type simRun struct {
	answers []*exec.Batch
	now     sim.Time
	picks   uint64
	trace   []pageAccess
	pool    buffer.Stats
	abm     abm.Stats
	disk    iosim.Stats
	splits  int64 // chains split
}

type pageAccess struct {
	page storage.PageID
	at   sim.Time
}

// runPlans runs the plans, each as a simulated process of its own, all
// at once, on a fresh simulator over db: under Cooperative Scans when
// cscan, under PBM with a pool of a third of lineitem otherwise. Scans of
// lineitem that read l_shipdate carry pred on it, when pred is set. The
// CPU model has two cores. inline keeps every chain inline.
func runPlans(db *tpch.DB, plans []func(tpch.ScanBuilder, *exec.Ctx) exec.Op, cscan bool, pred *exec.ScanPredicate, inline bool) simRun {
	defer exec.InlineChains(inline)()
	eng := sim.NewEngine()
	r := rt.Sim(eng)
	disk := iosim.New(r, iosim.Config{Bandwidth: 700e6, SeekLatency: 50 * time.Microsecond})
	ctx := &exec.Ctx{RT: r, CPU: exec.NewCPU(r, 2), PerTupleCPU: 20 * time.Nanosecond, ReadAheadTuples: 8192}
	var run simRun
	lineitem := db.Snapshot("lineitem")
	budget := lineitem.NumTuples() * 40 / 3
	if cscan {
		ctx.ABM = abm.New(r, disk, abm.Config{ChunkTuples: 8192, Capacity: budget})
	} else {
		ctx.PBM = pbm.New(eng, pbm.DefaultConfig())
		ctx.Pool = buffer.NewPool(r, disk, ctx.PBM, budget)
		ctx.Pool.OnAccess = func(p *storage.Page) { run.trace = append(run.trace, pageAccess{p.ID, eng.Now()}) }
	}
	build := func(table string, cols []string, ranges []exec.RIDRange, _ bool) exec.Op {
		idx := make([]int, len(cols))
		for i, c := range cols {
			idx[i] = db.Col(table, c)
		}
		var p *exec.ScanPredicate
		if pred != nil && table == "lineitem" && slices.Contains(cols, "l_shipdate") {
			p = pred
		}
		return ctx.NewScan(db.Snapshot(table), idx, ranges, nil, p)
	}
	run.answers = make([]*exec.Batch, len(plans))
	s0 := exec.Splits()
	left := len(plans)
	for k, plan := range plans {
		k, plan := k, plan
		eng.Go(fmt.Sprint("query-", k), func() {
			run.answers[k] = exec.Collect(plan(build, ctx))
			if left--; left == 0 && ctx.ABM != nil {
				ctx.ABM.Stop()
			}
		})
	}
	eng.Run()
	run.now, run.picks, run.splits = eng.Now(), eng.Picks(), exec.Splits()-s0
	if ctx.Pool != nil {
		run.pool = ctx.Pool.Stats()
	} else {
		run.abm = ctx.ABM.Stats()
	}
	run.disk = disk.Stats().Stats
	return run
}

// sameBits reports whether a and b hold the same rows in the same order,
// floats compared bit for bit.
func sameBits(a, b *exec.Batch) bool {
	if a.N != b.N || len(a.Vecs) != len(b.Vecs) {
		return false
	}
	for c, v := range a.Vecs {
		w := b.Vecs[c]
		if v.T != w.T {
			return false
		}
		switch v.T {
		case storage.Int64:
			if !slices.Equal(v.I64[:a.N], w.I64[:a.N]) {
				return false
			}
		case storage.Float64:
			for i := 0; i < a.N; i++ {
				if math.Float64bits(v.F64[i]) != math.Float64bits(w.F64[i]) {
					return false
				}
			}
		case storage.String:
			if !slices.Equal(v.Str[:a.N], w.Str[:a.N]) {
				return false
			}
		}
	}
	return true
}

// microPlan is a §4.1 query as RunMicro builds it: Q1 or Q6 over r in
// XChg parts, merged by a final aggregate.
func microPlan(db *tpch.DB, q1 bool, r exec.RIDRange, parts int) func(tpch.ScanBuilder, *exec.Ctx) exec.Op {
	query, merge := tpch.Q6, []exec.AggSpec{{Kind: exec.AggSum, Col: 0}}
	var groups []int
	if q1 {
		query, groups = tpch.Q1, []int{0, 1}
		merge = []exec.AggSpec{{Kind: exec.AggSum, Col: 2}, {Kind: exec.AggSum, Col: 3}, {Kind: exec.AggSum, Col: 4}, {Kind: exec.AggSum, Col: 5}, {Kind: exec.AggSum, Col: 9}}
	}
	return func(build tpch.ScanBuilder, ctx *exec.Ctx) exec.Op {
		var subs []func() exec.Op
		for _, pr := range exec.PartitionRange(r.Lo, r.Hi, parts) {
			pr := pr
			subs = append(subs, func() exec.Op { return query([]exec.RIDRange{pr})(db, build) })
		}
		return &exec.HashAggr{Child: &exec.XChg{Ctx: ctx, Parts: subs}, Groups: groups, Aggs: merge}
	}
}

// TestDifferentialSplitChain: on the simulator an aggregate over a chain
// of Selects and Projects that ends in a scan runs the chain beside the
// scan, on a goroutine of its own; exec.InlineChains keeps the inline
// chain the real runtime runs. Both must give every query the same answer
// bit for bit and leave the simulation the same: the same final clock,
// the same number of processes picked to run (sim.Engine.Picks), the
// same page accesses at the same instants and the same pool, ABM and
// device counters. The runs cover the §4.1 micro plans (Q1 and Q6 in
// two or eight XChg parts, four queries at once over overlapping ranges;
// a part of two covers more vectors than a scan has sets of buffers) and
// each of the 22 TPC-H plans alone, under PBM and Cooperative Scans, with
// and without a shipdate predicate on the lineitem scans.
func TestDifferentialSplitChain(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(prev)
	db := tpch.Generate(0.005, 3)
	n := db.Snapshot("lineitem").NumTuples()
	type job struct {
		name  string
		plans []func(tpch.ScanBuilder, *exec.Ctx) exec.Op
	}
	jobs := []job{{"micro", []func(tpch.ScanBuilder, *exec.Ctx) exec.Op{
		microPlan(db, true, exec.RIDRange{Lo: 0, Hi: n}, 8), microPlan(db, false, exec.RIDRange{Lo: n / 4, Hi: n}, 2),
		microPlan(db, true, exec.RIDRange{Lo: n / 3, Hi: n}, 2), microPlan(db, false, exec.RIDRange{Lo: 0, Hi: n / 3}, 8),
	}}}
	for qi, plan := range tpch.Queries() {
		plan := plan
		jobs = append(jobs, job{fmt.Sprint("Q", qi+1), []func(tpch.ScanBuilder, *exec.Ctx) exec.Op{
			func(build tpch.ScanBuilder, _ *exec.Ctx) exec.Op { return plan(db, build) },
		}})
	}
	window := &exec.ScanPredicate{Col: db.Col("lineitem", "l_shipdate"), Lo: tpch.Date(1994, 1, 1), Hi: tpch.Date(1996, 12, 31)}
	var split []string
	for _, j := range jobs {
		for _, cscan := range []bool{false, true} {
			for _, pred := range []*exec.ScanPredicate{nil, window} {
				what := fmt.Sprintf("%s cscan=%v predicate=%v", j.name, cscan, pred != nil)
				got, want := runPlans(db, j.plans, cscan, pred, false), runPlans(db, j.plans, cscan, pred, true)
				if want.splits != 0 {
					t.Fatalf("%s: %d chains split with InlineChains set", what, want.splits)
				}
				for k := range want.answers {
					if !sameBits(got.answers[k], want.answers[k]) {
						t.Errorf("%s: query %d answers %d rows, %d inline; rows or bits differ", what, k, got.answers[k].N, want.answers[k].N)
					}
				}
				if got.now != want.now || got.picks != want.picks || got.pool != want.pool || got.abm != want.abm || got.disk != want.disk {
					t.Errorf("%s: split chains ended the simulation at %v after %d picks with pool %+v, ABM %+v, device %+v; inline at %v after %d with %+v, %+v, %+v",
						what, got.now, got.picks, got.pool, got.abm, got.disk, want.now, want.picks, want.pool, want.abm, want.disk)
				}
				if !slices.Equal(got.trace, want.trace) {
					t.Errorf("%s: %d page accesses with split chains, %d inline; pages or instants differ", what, len(got.trace), len(want.trace))
				}
				if got.splits > 0 && !cscan && pred == nil {
					split = append(split, j.name)
				}
			}
		}
	}
	t.Logf("plans with a split chain: %v", split)
	if len(split) < 3 || split[0] != "micro" || !slices.Contains(split, "Q1") || !slices.Contains(split, "Q6") {
		t.Errorf("plans with a split chain: %v, want the micro plans, Q1 and Q6 among them", split)
	}
}
