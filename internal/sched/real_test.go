package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rt"
)

// Real-runtime scheduler tests (run with -race): admission, queueing and
// slot hand-off from concurrent goroutines.

func TestRealAdmitBoundsConcurrency(t *testing.T) {
	r := rt.NewReal()
	sch := New(r, Config{MPL: 3, QueueDepth: -1})
	var cur, peak atomic.Int64
	const queries = 64
	for i := 0; i < queries; i++ {
		i := i
		r.Go("query", func() {
			tk, ok := sch.Admit(0, i)
			if !ok {
				t.Error("unbounded queue rejected an admission")
				return
			}
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			r.Sleep(200 * time.Microsecond)
			cur.Add(-1)
			tk.Done()
		})
	}
	r.Run()
	if t.Failed() {
		return
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("MPL 3 ran %d queries concurrently", p)
	}
	st := sch.Stats(r.Now())
	if st.Completed != queries || st.Rejected != 0 {
		t.Fatalf("accounting: %+v", st)
	}
	for _, q := range sch.Completed() {
		if q.Finish < q.Admit || q.Admit < q.Arrive {
			t.Fatalf("non-monotonic timestamps: %+v", q)
		}
	}
}

// Every admission policy must stay mutex-correct on the real runtime:
// concurrent AdmitQuery/Done with tenants and costs, full accounting,
// no lost slots. Run with -race.
func TestRealPoliciesConcurrentAdmission(t *testing.T) {
	for _, pol := range []string{"fifo", "sesf", "wfq"} {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			r := rt.NewReal()
			sch := New(r, Config{
				MPL:           2,
				QueueDepth:    -1,
				Policy:        pol,
				TenantWeights: map[int]float64{0: 3, 1: 1},
			})
			const queries = 48
			for i := 0; i < queries; i++ {
				i := i
				r.Go("query", func() {
					tk, ok := sch.AdmitQuery(Query{
						Stream: i, Seq: 0, Tenant: i % 2,
						Cost: float64(i%7) * 0.001,
					})
					if !ok {
						t.Error("unbounded queue rejected an admission")
						return
					}
					r.Sleep(100 * time.Microsecond)
					tk.Done()
				})
			}
			r.Run()
			if t.Failed() {
				return
			}
			st := sch.Stats(r.Now())
			if st.Completed != queries || st.Rejected != 0 {
				t.Fatalf("accounting: %+v", st)
			}
			var sum int64
			for _, ts := range sch.TenantStats(2) {
				sum += ts.Completed
			}
			if sum != queries {
				t.Fatalf("per-tenant completions %d, want %d", sum, queries)
			}
		})
	}
}

func TestRealAdmitRejectsWhenQueueFull(t *testing.T) {
	r := rt.NewReal()
	sch := New(r, Config{MPL: 1, QueueDepth: 2})
	const queries = 32
	var rejected atomic.Int64
	for i := 0; i < queries; i++ {
		i := i
		r.Go("query", func() {
			tk, ok := sch.Admit(0, i)
			if !ok {
				rejected.Add(1)
				return
			}
			r.Sleep(500 * time.Microsecond)
			tk.Done()
		})
	}
	r.Run()
	st := sch.Stats(r.Now())
	if err := sch.Check(true); err != nil || st.Arrived != queries {
		t.Fatalf("arrived %d of %d queries: %v", st.Arrived, queries, err)
	}
	if st.Rejected != rejected.Load() {
		t.Fatalf("rejected mismatch: stats %d, observed %d", st.Rejected, rejected.Load())
	}
	// 32 near-simultaneous arrivals into MPL 1 + queue 2 must reject some.
	if st.Rejected == 0 {
		t.Log("note: no rejections exercised this run (timing-dependent)")
	}
	if st.MaxQueueDepth > 2 {
		t.Fatalf("queue overflowed its bound: depth %d", st.MaxQueueDepth)
	}
}
