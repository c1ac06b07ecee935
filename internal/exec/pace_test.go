package exec

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rt"
)

// Pacing at the operator level (see rt/pace.go): every scan thread paces
// on its own fork of the plan's query handle.

// sleepCounter counts the Sleep calls that reach a real runtime.
type sleepCounter struct {
	rt.Runtime
	sleeps atomic.Int64
}

func (c *sleepCounter) Sleep(d rt.Duration) {
	c.sleeps.Add(1)
	c.Runtime.Sleep(d)
}

// sleepClock is a real runtime on a clock that moves only when a thread
// sleeps, by exactly what it asked for: the real work between two pacing
// calls takes no time on it, so a thread's debt is what it was charged.
type sleepClock struct {
	sleepCounter
	now atomic.Int64
}

func (c *sleepClock) Now() rt.Time { return rt.Time(c.now.Load()) }

func (c *sleepClock) Sleep(d rt.Duration) {
	c.sleepCounter.Sleep(d)
	c.now.Add(int64(d))
}

// TestPaceXChgPartsPaceIndependently: the four parts of an XChg share one
// query handle but each scan thread owes only its own charges, so with a
// core per part a plan charged T in total finishes in about T/4. One debt
// per query would serialise the parts' lumps behind each other — or, read
// the other way, let eight threads pay one thread's debt eight times.
func TestPaceXChgPartsPaceIndependently(t *testing.T) {
	const n, parts, perTuple = 128 * VectorSize, 4, 500 * time.Nanosecond
	r := &sleepCounter{Runtime: rt.NewReal()}
	e := newRealEnvOn(t, r, n)
	e.ctx.CPU = NewCPU(r, parts)
	e.ctx.PerTupleCPU = perTuple
	ctx := e.ctx.WithQuery(NewQueryCtx(r))
	for _, pg := range e.snap.PagesInRange(0, 0, n) {
		e.ctx.Pool.Unpin(e.ctx.Pool.Get(pg)) // resident: only CPU is charged
	}
	r.sleeps.Store(0)

	var mk []func() Op
	for _, pr := range PartitionRange(0, n, parts) {
		pr := pr
		mk = append(mk, func() Op {
			return &Scan{Ctx: ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{pr}}
		})
	}
	start := time.Now()
	got := Drain(&XChg{Ctx: ctx, Parts: mk})
	wall := time.Since(start)
	if got != n {
		t.Fatalf("drained %d tuples, want %d", got, n)
	}
	const total = n * perTuple // 65.5 ms
	if wall < total/parts {
		t.Errorf("charged %v over %d threads but only %v passed: under-charged", total, parts, wall)
	}
	if wall > total/2 {
		t.Errorf("charged %v over %d threads took %v, want about %v", total, parts, wall, total/parts)
	}
	// One lump per quantum of each thread's share, plus each thread's
	// residual at close.
	if most := int64(total/time.Millisecond) + parts; r.sleeps.Load() > most {
		t.Errorf("%d sleeps for %v charged, want <= %d", r.sleeps.Load(), total, most)
	}
}

// TestPaceModelledCoresBind: four XChg parts on one modelled core take
// the whole charge in wall time, less at most one quantum. A paced
// thread's real work pays its debt, but its wait for the core does not:
// netting that wait would let each part sleep less while holding the
// core than it was charged, and the core would no longer bind. A vector
// is charged more than a quantum and the credit cap together, so every
// vector is paid as a lump under the core and no residual is left for
// close.
func TestPaceModelledCoresBind(t *testing.T) {
	const n, parts, perTuple = 16 * VectorSize, 4, 5 * time.Microsecond
	r := rt.NewReal()
	e := newRealEnvOn(t, r, n)
	e.ctx.CPU = NewCPU(r, 1)
	e.ctx.PerTupleCPU = perTuple
	ctx := e.ctx.WithQuery(NewQueryCtx(r))
	for _, pg := range e.snap.PagesInRange(0, 0, n) {
		e.ctx.Pool.Unpin(e.ctx.Pool.Get(pg))
	}
	var mk []func() Op
	for _, pr := range PartitionRange(0, n, parts) {
		pr := pr
		mk = append(mk, func() Op {
			return &Scan{Ctx: ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{pr}}
		})
	}
	start := time.Now()
	if got := Drain(&XChg{Ctx: ctx, Parts: mk}); got != n {
		t.Fatalf("drained %d tuples, want %d", got, n)
	}
	const total = n * perTuple // 81.9 ms
	if wall := time.Since(start); wall < total-time.Millisecond {
		t.Errorf("charged %v on one core over %d threads, but only %v passed", total, parts, wall)
	}
}

// TestPaceCancelPaysNoResidual: a scan that owes less than a quantum when
// its query is cancelled ends at once — no lump, and no residual at close.
// Its clock is the sleeps alone, so the real work of five vectors pays
// none of their charge and the debt is exact.
func TestPaceCancelPaysNoResidual(t *testing.T) {
	const n = 16 * VectorSize
	r := &sleepClock{sleepCounter: sleepCounter{Runtime: rt.NewReal()}}
	e := newRealEnvOn(t, r, n)
	e.ctx.CPU = NewCPU(r, 1)
	e.ctx.PerTupleCPU = 100 * time.Nanosecond // 102 µs a vector
	qc := NewQueryCtx(r)
	ctx := e.ctx.WithQuery(qc)
	for _, pg := range e.snap.PagesInRange(0, 0, n) {
		e.ctx.Pool.Unpin(e.ctx.Pool.Get(pg))
	}
	r.sleeps.Store(0)

	s := &Scan{Ctx: ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, n}}}
	s.Open()
	for i := 0; i < 5; i++ {
		if s.Next() == nil {
			t.Fatal("scan ended early")
		}
	}
	if s.pace.Lead() != 5*VectorSize*100*time.Nanosecond {
		t.Fatalf("five vectors charged, thread owes %v", s.pace.Lead())
	}
	qc.Cancel(CauseClientCancel)
	start := time.Now()
	if s.Next() != nil {
		t.Fatal("cancelled scan produced a batch")
	}
	s.Close()
	if took := time.Since(start); took > 2*time.Millisecond {
		t.Errorf("cancelled scan took %v to end, want within two quanta", took)
	}
	if got := r.sleeps.Load(); got != 0 {
		t.Errorf("cancelled scan slept %d times, want 0: the residual is not paid", got)
	}

	// The same scan left to finish pays what it owes.
	ctx = e.ctx.WithQuery(NewQueryCtx(r))
	start = time.Now()
	Drain(&Scan{Ctx: ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, n}}})
	if wall, want := time.Since(start), n*100*time.Nanosecond; wall < want {
		t.Errorf("scan charged %v finished in %v: residual not paid at close", want, wall)
	}
}
