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

// TestPaceCancelPaysNoResidual: a scan that owes less than a quantum when
// its query is cancelled ends at once — no lump, and no residual at close.
func TestPaceCancelPaysNoResidual(t *testing.T) {
	const n = 16 * VectorSize
	r := &sleepCounter{Runtime: rt.NewReal()}
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
