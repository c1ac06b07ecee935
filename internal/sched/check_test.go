package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rt"
)

// TestSchedulerCheckUnderTraffic: on threads, Check(false) passes at
// every poll while 64 queries arrive at MPL 2 and a four-deep wfq queue
// — granted, queued, rejected, dropped past their deadline, killed by it
// or by their client mid-run, or completed — and Check(true) once they
// have all resolved.
func TestSchedulerCheckUnderTraffic(t *testing.T) {
	r := rt.NewReal()
	sch := New(r, Config{MPL: 2, QueueDepth: 4, Policy: "wfq"})
	wg := r.NewWaitGroup()
	for i := 0; i < 64; i++ {
		i := i
		wg.Add(1)
		r.Go("query", func() {
			defer wg.Done()
			r.Sleep(time.Duration(i) * 100 * time.Microsecond)
			qc := rt.NewQueryCtx(r)
			if i%3 == 0 {
				qc.SetDeadline(r.Now() + rt.Time(time.Millisecond))
			}
			tk, ok := sch.AdmitQuery(Query{Stream: i, Tenant: i % 4, Ctx: qc})
			if !ok {
				return
			}
			r.Sleep(200 * time.Microsecond)
			switch {
			case i%5 == 1:
				tk.Cancel(rt.CauseClientCancel)
			case qc.Expired(r.Now()):
				tk.Cancel(rt.CauseDeadlineExceeded)
			default:
				tk.Done()
			}
		})
	}
	var done atomic.Bool
	polls := 0
	r.Go("poller", func() {
		for ; !done.Load(); polls++ {
			if err := sch.Check(false); err != nil {
				t.Errorf("poll %d: %v", polls, err)
				return
			}
		}
	})
	r.Go("driver", func() {
		wg.Wait()
		done.Store(true)
	})
	r.Run()
	if err := sch.Check(true); err != nil || polls == 0 {
		t.Fatalf("after %d polls: %v", polls, err)
	}
}
