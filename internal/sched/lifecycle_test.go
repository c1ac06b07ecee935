package sched

import (
	"sync"
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/sim"
)

// TestQueuedCancelDropsEntry cancels a query while it waits in the
// admission queue: the entry must leave the queue immediately (not
// absorb an MPL slot), be recorded as a client-cancel queue drop, and
// the query behind it must still be admitted.
func TestQueuedCancelDropsEntry(t *testing.T) {
	eng := sim.NewEngine()
	r := rt.Sim(eng)
	sch := New(r, Config{MPL: 1})

	q0 := rt.NewQueryCtx(r)
	qc := rt.NewQueryCtx(r) // the queued victim
	q2 := rt.NewQueryCtx(r)

	var admitted []int
	var mu sync.Mutex
	note := func(id int) {
		mu.Lock()
		admitted = append(admitted, id)
		mu.Unlock()
	}

	eng.Go("q0", func() {
		tk, ok := sch.AdmitQuery(Query{Stream: 0, Ctx: q0})
		if !ok {
			t.Error("q0 rejected")
			return
		}
		note(0)
		r.Sleep(10 * time.Millisecond)
		tk.Done()
	})
	eng.Go("q1", func() {
		r.Sleep(time.Millisecond)
		if _, ok := sch.AdmitQuery(Query{Stream: 1, Ctx: qc}); ok {
			t.Error("cancelled q1 admitted")
			return
		}
	})
	eng.Go("q2", func() {
		r.Sleep(2 * time.Millisecond)
		tk, ok := sch.AdmitQuery(Query{Stream: 2, Ctx: q2})
		if !ok {
			t.Error("q2 rejected")
			return
		}
		note(2)
		tk.Done()
	})
	eng.Go("canceller", func() {
		r.Sleep(5 * time.Millisecond)
		if sch.Queued() != 2 {
			t.Errorf("queued = %d before cancel, want 2", sch.Queued())
		}
		qc.Cancel(rt.CauseClientCancel)
	})
	eng.Run()

	if want := []int{0, 2}; len(admitted) != 2 || admitted[0] != 0 || admitted[1] != 2 {
		t.Fatalf("admitted %v, want %v", admitted, want)
	}
	drops := sch.Dropped()
	if len(drops) != 1 {
		t.Fatalf("recorded %d queue drops, want 1", len(drops))
	}
	d := drops[0]
	if d.Stream != 1 || d.Cause != rt.CauseClientCancel {
		t.Fatalf("drop = %+v, want stream 1 / client-cancel", d)
	}
	// The victim queued at t=1ms and was cancelled at t=5ms: its record
	// charges exactly the queue residence, not an execution.
	if got := d.Latency(); got != 4*time.Millisecond {
		t.Fatalf("drop latency = %v, want 4ms", got)
	}
	st := sch.Stats(eng.Now())
	if st.Cancelled != 1 || st.TimedOut != 0 {
		t.Fatalf("cancelled/timedout = %d/%d, want 1/0", st.Cancelled, st.TimedOut)
	}
	if err := sch.Check(true); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionTimeoutDrop arms deadlines on queued queries and checks
// that the slot-transfer loop drops expired entries with TimedOut
// accounting instead of admitting them, and that their queue-drop
// latency stays out of the completed-query distribution.
func TestAdmissionTimeoutDrop(t *testing.T) {
	eng := sim.NewEngine()
	r := rt.Sim(eng)
	sch := New(r, Config{MPL: 1})

	// q0 runs 50ms; q1 and q2 queue behind it with 10ms deadlines and
	// must both time out; q3 (no deadline) queues too and must run.
	eng.Go("q0", func() {
		tk, _ := sch.AdmitQuery(Query{Stream: 0})
		r.Sleep(50 * time.Millisecond)
		tk.Done()
	})
	for i := 1; i <= 2; i++ {
		i := i
		eng.Go("victim", func() {
			r.Sleep(sim.Duration(i) * time.Millisecond)
			qc := rt.NewQueryCtx(r)
			qc.SetDeadline(r.Now() + rt.Time(10*time.Millisecond))
			if _, ok := sch.AdmitQuery(Query{Stream: i, Ctx: qc}); ok {
				t.Errorf("expired q%d admitted", i)
			}
			if qc.Cause() != rt.CauseAdmissionTimeout {
				t.Errorf("q%d cause = %v, want admission-timeout", i, qc.Cause())
			}
		})
	}
	eng.Go("q3", func() {
		r.Sleep(3 * time.Millisecond)
		tk, ok := sch.AdmitQuery(Query{Stream: 3, Ctx: rt.NewQueryCtx(r)})
		if !ok {
			t.Error("live q3 rejected")
			return
		}
		tk.Done()
	})
	eng.Run()

	st := sch.Stats(eng.Now())
	if st.TimedOut != 2 || st.Cancelled != 0 {
		t.Fatalf("timedout/cancelled = %d/%d, want 2/0", st.TimedOut, st.Cancelled)
	}
	if st.Completed != 2 {
		t.Fatalf("completed = %d, want 2 (q0 and q3)", st.Completed)
	}
	if err := sch.Check(true); err != nil {
		t.Fatal(err)
	}
	// The victims waited ~49ms in queue; the completed queries' latency
	// percentiles must not include those drops (QueueDrop reports them).
	if st.QueueDrop.Max < 45*time.Millisecond {
		t.Fatalf("queue-drop max = %v, want the victims' ~49ms waits", st.QueueDrop.Max)
	}
	for _, d := range sch.Dropped() {
		if d.Cause != rt.CauseAdmissionTimeout {
			t.Fatalf("drop cause = %v, want admission-timeout", d.Cause)
		}
	}
}

// TestQueueFullReapsDeadEntries fills the bounded queue with queries
// whose deadlines have already passed and checks that a live arrival
// reaps them instead of being rejected.
func TestQueueFullReapsDeadEntries(t *testing.T) {
	eng := sim.NewEngine()
	r := rt.Sim(eng)
	sch := New(r, Config{MPL: 1, QueueDepth: 2})

	eng.Go("q0", func() {
		tk, _ := sch.AdmitQuery(Query{Stream: 0})
		r.Sleep(100 * time.Millisecond)
		tk.Done()
	})
	for i := 1; i <= 2; i++ {
		i := i
		eng.Go("dead", func() {
			r.Sleep(sim.Duration(i) * time.Millisecond)
			qc := rt.NewQueryCtx(r)
			qc.SetDeadline(r.Now() + rt.Time(5*time.Millisecond))
			sch.AdmitQuery(Query{Stream: i, Ctx: qc})
		})
	}
	eng.Go("live", func() {
		r.Sleep(20 * time.Millisecond) // queue is full of expired entries now
		tk, ok := sch.AdmitQuery(Query{Stream: 3, Ctx: rt.NewQueryCtx(r)})
		if !ok {
			t.Error("live arrival rejected although every queued entry was dead")
			return
		}
		tk.Done()
	})
	eng.Run()

	st := sch.Stats(eng.Now())
	if st.Rejected != 0 {
		t.Fatalf("rejected = %d, want 0 (dead entries must be reaped)", st.Rejected)
	}
	if st.TimedOut != 2 {
		t.Fatalf("timedout = %d, want 2", st.TimedOut)
	}
	if st.Completed != 2 {
		t.Fatalf("completed = %d, want 2", st.Completed)
	}
}

// TestDoneCancelRace resolves many tickets from two racing goroutines on
// the real runtime: exactly one of Done/Cancel must win each ticket,
// with no double slot release and no double record. Run with -race.
func TestDoneCancelRace(t *testing.T) {
	r := rt.NewReal()
	sch := New(r, Config{MPL: 4, QueueDepth: -1})

	const n = 200
	for i := 0; i < n; i++ {
		i := i
		r.Go("q", func() {
			qc := rt.NewQueryCtx(r)
			tk, ok := sch.AdmitQuery(Query{Stream: 0, Seq: i, Ctx: qc})
			if !ok {
				t.Errorf("query %d rejected", i)
				return
			}
			var inner sync.WaitGroup
			inner.Add(2)
			go func() { defer inner.Done(); tk.Done() }()
			go func() { defer inner.Done(); tk.Cancel(rt.CauseClientCancel) }()
			inner.Wait()
		})
	}
	r.Run()

	comp, killed := int64(len(sch.Completed())), int64(len(sch.Killed()))
	if comp+killed != n {
		t.Fatalf("completed %d + killed %d != %d arrivals", comp, killed, n)
	}
	if got := sch.Running(); got != 0 {
		t.Fatalf("running = %d after all tickets resolved, want 0", got)
	}
}
