package exec

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/storage"
)

// splitOn makes the host run goroutines on two cores at least for the
// rest of t, so that the simulator splits chains (splitsOn), and returns
// the goroutine count before t starts any.
func splitOn(t *testing.T) int {
	t.Helper()
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	return runtime.NumGoroutine()
}

// settles fails t unless the goroutine count comes back down to base: a
// goroutine that has sent its last message may take a moment to exit.
func settles(t *testing.T, what string, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// boom is a Float64 expression that panics on its eval-th Eval and
// copies column 1 otherwise.
type boom struct {
	eval  int
	evals *int
}

func (boom) Type() storage.ColumnType { return storage.Float64 }

func (e boom) Eval(b *Batch, out *Vec) {
	if *e.evals++; *e.evals == e.eval {
		panic(fmt.Sprintf("boom at vector %d", e.eval))
	}
	out.Reset()
	out.T = storage.Float64
	out.F64 = append(out.F64, b.Vecs[1].F64[:b.N]...)
}

// sleepBoom is a runtime whose sleeps panic from the at-th on: a CPU
// model on it panics inside a scan's vector loop.
type sleepBoom struct {
	rt.Runtime
	sleeps, at int
}

func (r *sleepBoom) Sleep(d rt.Duration) {
	if r.sleeps++; r.sleeps >= r.at {
		panic(fmt.Sprintf("scan boom at sleep %d", r.sleeps))
	}
	r.Runtime.Sleep(d)
}

// TestSplitChainFailures: a split chain ends cleanly however it ends. A
// panic on the aggregate's goroutine, on its first vector (so the scan
// would go on to fill the ring) or a late one, is raised again on the
// simulated thread; a panic in the scan, on the simulated thread, ends
// the ring and joins the goroutine before it goes on up; a query
// cancelled mid-scan ends the stream, and its aggregate emits what it
// added, as the inline chain does, at the same instant. After each, no
// goroutine is left over.
func TestSplitChainFailures(t *testing.T) {
	base := splitOn(t)
	const n = 40000 // 40 vectors
	plan := func(e *env, expr Expr) *HashAggr {
		scan := &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0, 1, 2}, Ranges: []RIDRange{{Lo: 0, Hi: n}}}
		return &HashAggr{
			Child:  &Project{Child: &Select{Child: scan, Pred: NewCmp(">=", Col{Idx: 0, T: storage.Int64}, ConstI(10))}, Exprs: []Expr{Col{Idx: 2, T: storage.String}, expr}},
			Groups: []int{0},
			Aggs:   []AggSpec{{Kind: AggSum, Col: 1}, {Kind: AggCount}},
		}
	}
	panics := func(e *env, fn func()) (got any) {
		e.eng.Go("test", fn)
		defer func() { got = recover() }()
		e.eng.Run()
		return nil
	}

	for _, at := range []int{1, 25} {
		e := newEnv(t, n, false)
		e.ctx.CPU, e.ctx.PerTupleCPU = NewCPU(e.ctx.RT, 1), time.Nanosecond
		evals, s0 := 0, splits.Load()
		got := panics(e, func() { Collect(plan(e, boom{eval: at, evals: &evals})) })
		if want := fmt.Sprintf("boom at vector %d", at); got != want {
			t.Errorf("aggregate panic at vector %d: the simulation raised %v, want %q", at, got, want)
		}
		if splits.Load() == s0 {
			t.Errorf("aggregate panic at vector %d: the chain ran inline", at)
		}
		settles(t, fmt.Sprintf("aggregate panic at vector %d", at), base)
	}

	e := newEnv(t, n, false)
	e.ctx.CPU, e.ctx.PerTupleCPU = NewCPU(&sleepBoom{Runtime: e.ctx.RT, at: 12}, 1), time.Nanosecond
	evals := 0
	got := panics(e, func() { Collect(plan(e, boom{evals: &evals})) })
	if want := "scan boom at sleep 12"; got != want {
		t.Errorf("scan panic: the simulation raised %v, want %q", got, want)
	}
	if evals > 11 {
		t.Errorf("scan panic: the aggregate read %d vectors, the scan emitted 11", evals)
	}
	settles(t, "scan panic", base)

	// Cancelled at at (0: not cancelled), halfway through the scan, on
	// both paths.
	cancelled := func(inline bool, at rt.Time) (*Batch, rt.Time) {
		defer InlineChains(inline)()
		e := newEnv(t, n, false)
		e.ctx.CPU, e.ctx.PerTupleCPU = NewCPU(e.ctx.RT, 1), time.Nanosecond
		q := NewQueryCtx(e.ctx.RT)
		ctx := e.ctx.WithQuery(q)
		var out *Batch
		if at > 0 {
			e.eng.Go("cancel", func() {
				e.ctx.RT.SleepUntil(at)
				q.Cancel(CauseClientCancel)
			})
		}
		e.run(func() {
			scan := &Scan{Ctx: ctx, Snap: e.snap, Cols: []int{0, 1, 2}, Ranges: []RIDRange{{Lo: 0, Hi: n}}}
			out = Collect(&HashAggr{Child: &Select{Child: scan, Pred: NewCmp(">=", Col{Idx: 0, T: storage.Int64}, ConstI(10))}, Groups: []int{2}, Aggs: []AggSpec{{Kind: AggSum, Col: 1}, {Kind: AggCount}}})
		})
		return out, e.eng.Now()
	}
	_, end := cancelled(true, 0)
	split, splitAt := cancelled(false, end/2)
	inline, inlineAt := cancelled(true, end/2)
	if !sameBatch(split, inline) || splitAt != inlineAt {
		t.Errorf("cancelled: split chain emitted %d rows at %v, inline %d rows at %v", split.N, splitAt, inline.N, inlineAt)
	}
	if counted := sum(split.Vecs[2].I64); counted == 0 || counted >= n-10 {
		t.Errorf("cancelled: the aggregate counted %d tuples, want part of the %d", counted, n-10)
	}
	settles(t, "cancelled", base)
}

func sum(xs []int64) (s int64) {
	for _, x := range xs {
		s += x
	}
	return s
}
