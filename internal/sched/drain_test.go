package sched

import (
	"testing"

	"repro/internal/rt"
	"repro/internal/sim"
)

// TestDrainRejectsWithoutPollutingStats: after Drain, new admissions
// resolve AdmitDraining and land in DrainRejected — not Arrived, not
// Rejected — so the reconciliation invariant holds through shutdown.
func TestDrainRejectsWithoutPollutingStats(t *testing.T) {
	eng := sim.NewEngine()
	r := rt.Sim(eng)
	s := New(r, Config{MPL: 1, QueueDepth: 1})

	eng.Go("main", func() {
		tk, out := s.AdmitQueryOutcome(Query{Stream: 0, Seq: 0})
		if out != AdmitGranted {
			t.Errorf("first admit: got %v, want granted", out)
			return
		}

		s.Drain()
		if !s.Draining() {
			t.Error("Draining() = false after Drain")
		}
		if err := s.Check(true); err == nil || err.Error() != "sched: 1 running and 0 queued at idle" {
			t.Errorf("Check(true) with a query running = %v", err)
		}
		if _, out := s.AdmitQueryOutcome(Query{Stream: 1, Seq: 0}); out != AdmitDraining {
			t.Errorf("admit while draining: got %v, want draining", out)
		}
		if _, ok := s.AdmitQuery(Query{Stream: 2, Seq: 0}); ok {
			t.Error("AdmitQuery while draining: got ok")
		}

		tk.Done()
		if err := s.Check(true); err != nil {
			t.Errorf("after the last query finished: %v", err)
		}

		st := s.Stats(r.Now())
		if st.Arrived != 1 || st.Completed != 1 {
			t.Errorf("arrived=%d completed=%d, want 1/1", st.Arrived, st.Completed)
		}
		if st.Rejected != 0 {
			t.Errorf("Rejected = %d, want 0 (drain refusals must not count)", st.Rejected)
		}
		if st.DrainRejected != 2 {
			t.Errorf("DrainRejected = %d, want 2", st.DrainRejected)
		}
	})
	eng.Run()
}

// TestDrainLetsQueuedQueriesRun: entries already queued when Drain is
// called keep their place and are still granted slots.
func TestDrainLetsQueuedQueriesRun(t *testing.T) {
	eng := sim.NewEngine()
	r := rt.Sim(eng)
	s := New(r, Config{MPL: 1, QueueDepth: 4})

	queuedOutcome := AdmitOutcome(-1)
	wg := r.NewWaitGroup()
	wg.Add(1)
	eng.Go("main", func() {
		tk, out := s.AdmitQueryOutcome(Query{Stream: 0, Seq: 0})
		if out != AdmitGranted {
			t.Errorf("first admit: got %v, want granted", out)
		}
		r.Go("queued", func() {
			defer wg.Done()
			tk2, out := s.AdmitQueryOutcome(Query{Stream: 1, Seq: 0})
			queuedOutcome = out
			if tk2 != nil {
				tk2.Done()
			}
		})
		// Let the queued admission park before draining.
		r.Sleep(1)
		s.Drain()
		if tk != nil {
			tk.Done()
		}
		wg.Wait()
		if queuedOutcome != AdmitGranted {
			t.Errorf("queued query after drain: got %v, want granted", queuedOutcome)
		}
		if err := s.Check(true); err != nil {
			t.Errorf("after both queries resolved: %v", err)
		}
	})
	eng.Run()
}
