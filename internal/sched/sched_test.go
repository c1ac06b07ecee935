package sched

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/sim"
)

// Admit requests admission for a query identified as (stream, seq), with
// no tenant and no cost estimate. See AdmitQuery.
func (s *Scheduler) Admit(stream, seq int) (*Ticket, bool) {
	return s.AdmitQuery(Query{Stream: stream, Seq: seq})
}

// runQueries drives n queries through a scheduler, each executing for
// execTime of virtual time, arriving gap apart, and returns the stats.
func runQueries(t *testing.T, cfg Config, n int, gap, execTime sim.Duration) (Stats, *Scheduler) {
	t.Helper()
	eng := sim.NewEngine()
	sch := New(rt.Sim(eng), cfg)
	var stats Stats
	wg := eng.NewWaitGroup()
	wg.Add(1)
	eng.Go("gen", func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			i := i
			eng.Sleep(gap)
			wg.Add(1)
			eng.Go("query", func() {
				defer wg.Done()
				tk, ok := sch.Admit(0, i)
				if !ok {
					return
				}
				eng.Sleep(execTime)
				tk.Done()
			})
		}
	})
	eng.Go("driver", func() {
		wg.Wait()
		stats = sch.Stats(eng.Now())
	})
	eng.Run()
	return stats, sch
}

func TestMPLEnforced(t *testing.T) {
	eng := sim.NewEngine()
	sch := New(rt.Sim(eng), Config{MPL: 3, QueueDepth: -1})
	maxRunning := 0
	wg := eng.NewWaitGroup()
	for i := 0; i < 10; i++ {
		i := i
		wg.Add(1)
		eng.Go("q", func() {
			defer wg.Done()
			tk, ok := sch.Admit(0, i)
			if !ok {
				t.Errorf("query %d rejected with unbounded queue", i)
				return
			}
			if sch.Running() > maxRunning {
				maxRunning = sch.Running()
			}
			eng.Sleep(time.Millisecond)
			tk.Done()
		})
	}
	eng.Go("driver", func() { wg.Wait() })
	eng.Run()
	if maxRunning != 3 {
		t.Fatalf("max concurrent = %d, want MPL = 3", maxRunning)
	}
	if got := len(sch.Completed()); got != 10 {
		t.Fatalf("completed %d of 10", got)
	}
}

func TestAdmissionIsFIFO(t *testing.T) {
	eng := sim.NewEngine()
	sch := New(rt.Sim(eng), Config{MPL: 1, QueueDepth: -1})
	var order []int
	wg := eng.NewWaitGroup()
	for i := 0; i < 6; i++ {
		i := i
		wg.Add(1)
		eng.Go("q", func() {
			defer wg.Done()
			tk, _ := sch.Admit(0, i)
			order = append(order, i)
			eng.Sleep(time.Millisecond)
			tk.Done()
		})
	}
	eng.Go("driver", func() { wg.Wait() })
	eng.Run()
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("admission order %v, want FIFO", order)
	}
}

func TestBoundedQueueRejects(t *testing.T) {
	eng := sim.NewEngine()
	sch := New(rt.Sim(eng), Config{MPL: 1, QueueDepth: 2})
	admitted, rejected := 0, 0
	wg := eng.NewWaitGroup()
	// All five arrive at the same instant: one runs, two queue, two are
	// rejected.
	for i := 0; i < 5; i++ {
		i := i
		wg.Add(1)
		eng.Go("q", func() {
			defer wg.Done()
			tk, ok := sch.Admit(0, i)
			if !ok {
				rejected++
				return
			}
			admitted++
			eng.Sleep(time.Millisecond)
			tk.Done()
		})
	}
	eng.Go("driver", func() { wg.Wait() })
	eng.Run()
	if admitted != 3 || rejected != 2 {
		t.Fatalf("admitted=%d rejected=%d, want 3/2", admitted, rejected)
	}
	st := sch.Stats(eng.Now())
	if st.Rejected != 2 || st.Completed != 3 || st.Arrived != 5 {
		t.Fatalf("stats %+v", st)
	}
	if st.MaxQueueDepth != 2 {
		t.Fatalf("max queue depth %d, want 2", st.MaxQueueDepth)
	}
	if err := sch.Check(true); err != nil {
		t.Fatal(err)
	}
}

func TestLatencySplitAccounting(t *testing.T) {
	// MPL 1, two simultaneous arrivals, 10ms exec: the second query waits
	// exactly 10ms in the queue and runs for 10ms.
	st, sch := runQueries(t, Config{MPL: 1, QueueDepth: -1}, 2, 0, 10*time.Millisecond)
	if st.Completed != 2 {
		t.Fatalf("completed %d", st.Completed)
	}
	qs := sch.Completed()
	if qs[0].QueueWait() != 0 || qs[0].ExecTime() != 10*time.Millisecond {
		t.Fatalf("first query split %v/%v", qs[0].QueueWait(), qs[0].ExecTime())
	}
	if qs[1].QueueWait() != 10*time.Millisecond || qs[1].ExecTime() != 10*time.Millisecond {
		t.Fatalf("second query split %v/%v", qs[1].QueueWait(), qs[1].ExecTime())
	}
	if qs[1].Latency() != 20*time.Millisecond {
		t.Fatalf("second query latency %v", qs[1].Latency())
	}
	if st.Latency.Max != 20*time.Millisecond || st.Exec.Max != 10*time.Millisecond {
		t.Fatalf("dist %+v", st)
	}
}

func TestSLOAttainment(t *testing.T) {
	// MPL 1, four simultaneous arrivals, 10ms exec: latencies are 10, 20,
	// 30, 40ms. A 25ms SLO is met by exactly half.
	st, _ := runQueries(t, Config{MPL: 1, QueueDepth: -1, SLO: 25 * time.Millisecond}, 4, 0, 10*time.Millisecond)
	if st.SLOAttainment != 0.5 {
		t.Fatalf("SLO attainment %v, want 0.5", st.SLOAttainment)
	}
	// Throughput: 4 queries over 40ms of virtual time.
	if st.Throughput != 100 {
		t.Fatalf("throughput %v, want 100 q/s", st.Throughput)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ds := []sim.Duration{40, 10, 30, 20} // sorts to 10,20,30,40
	cases := []struct {
		p    float64
		want sim.Duration
	}{{50, 20}, {75, 30}, {95, 40}, {99, 40}, {100, 40}, {1, 10}}
	for _, c := range cases {
		if got := Percentile(ds, c.p); got != c.want {
			t.Errorf("p%g = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}

func TestPercentileValidatesP(t *testing.T) {
	for _, p := range []float64{0, -1, 100.5, 200} {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(_, %g) did not panic", p)
				}
			}()
			Percentile([]sim.Duration{1, 2, 3}, p)
		}()
	}
}

// distOf must agree with the exported Percentile contract while sorting
// only once.
func TestDistOfMatchesPercentile(t *testing.T) {
	ds := []sim.Duration{90, 10, 50, 70, 30, 20, 80, 40, 60, 100}
	ref := append([]sim.Duration(nil), ds...)
	d := distOf(ds)
	if d.P50 != Percentile(ref, 50) || d.P95 != Percentile(ref, 95) || d.P99 != Percentile(ref, 99) {
		t.Fatalf("distOf %+v disagrees with Percentile", d)
	}
	if d.Max != 100 || d.Mean != 55 {
		t.Fatalf("max/mean = %v/%v", d.Max, d.Mean)
	}
}

func TestSchedulerDeterministic(t *testing.T) {
	run := func() Stats {
		eng := sim.NewEngine()
		sch := New(rt.Sim(eng), Config{MPL: 4, QueueDepth: 8, SLO: 50 * time.Millisecond})
		rng := rand.New(rand.NewSource(7))
		wg := eng.NewWaitGroup()
		wg.Add(1)
		eng.Go("gen", func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				i := i
				eng.Sleep(ExpInterarrival(rng, 200))
				d := time.Duration(rng.Intn(20)+1) * time.Millisecond
				wg.Add(1)
				eng.Go("query", func() {
					defer wg.Done()
					tk, ok := sch.Admit(0, i)
					if !ok {
						return
					}
					eng.Sleep(d)
					tk.Done()
				})
			}
		})
		var st Stats
		eng.Go("driver", func() {
			wg.Wait()
			st = sch.Stats(eng.Now())
		})
		eng.Run()
		if err := sch.Check(true); err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic scheduler stats:\n%+v\n%+v", a, b)
	}
}

func TestTicketTerminalTransitionOnce(t *testing.T) {
	eng := sim.NewEngine()
	sch := New(rt.Sim(eng), Config{MPL: 1})
	eng.Go("q", func() {
		tk, _ := sch.Admit(0, 0)
		tk.Done()
		tk.Done() // second resolution is a no-op, not a panic
		tk.Cancel(rt.CauseClientCancel)
	})
	eng.Run()
	if got := len(sch.Completed()); got != 1 {
		t.Fatalf("completed %d queries, want 1", got)
	}
	if got := len(sch.Killed()); got != 0 {
		t.Fatalf("recorded %d kills after Done won the transition, want 0", got)
	}
	if sch.Running() != 0 {
		t.Fatalf("running %d after resolution, want 0 (slot released twice?)", sch.Running())
	}
}

func TestTicketCancelBeatsDone(t *testing.T) {
	eng := sim.NewEngine()
	sch := New(rt.Sim(eng), Config{MPL: 1})
	eng.Go("q", func() {
		tk, _ := sch.Admit(0, 0)
		tk.Cancel(rt.CauseNone) // maps to client-cancel
		tk.Done()               // loses the transition: no-op
	})
	eng.Run()
	if got := len(sch.Killed()); got != 1 {
		t.Fatalf("recorded %d kills, want 1", got)
	}
	if got := sch.Killed()[0].Cause; got != rt.CauseClientCancel {
		t.Fatalf("kill cause = %v, want client-cancel", got)
	}
	if got := len(sch.Completed()); got != 0 {
		t.Fatalf("completed %d queries after Cancel won, want 0", got)
	}
	if sch.Running() != 0 {
		t.Fatalf("running %d after resolution, want 0", sch.Running())
	}
}

func TestExpInterarrival(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sum sim.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		g := ExpInterarrival(rng, 100)
		if g < 0 {
			t.Fatal("negative gap")
		}
		sum += g
	}
	mean := sum / n
	// Rate 100/s => mean gap 10ms; allow 5%.
	if mean < 9500*time.Microsecond || mean > 10500*time.Microsecond {
		t.Fatalf("mean gap %v, want ~10ms", mean)
	}
	if ExpInterarrival(rng, 0) != 0 {
		t.Fatal("zero rate should yield zero gap")
	}
}

// TestWriteAdmissionAccounting: update queries share the queue and MPL
// with reads but complete into the write counters — read latency
// percentiles, read throughput and per-tenant stats never see them,
// while Arrived/Completed (and so the reconciliation invariant) count
// both kinds.
func TestWriteAdmissionAccounting(t *testing.T) {
	eng := sim.NewEngine()
	sch := New(rt.Sim(eng), Config{MPL: 2, QueueDepth: -1})
	eng.Go("w", func() {
		for i := 0; i < 6; i++ {
			tk, ok := sch.AdmitQuery(Query{Stream: 0, Seq: i, Write: i%2 == 1})
			if !ok {
				t.Errorf("admission %d refused", i)
				return
			}
			eng.Sleep(sim.Duration(1e6))
			tk.Done()
		}
	})
	eng.Run()
	st := sch.Stats(eng.Now())
	if st.Arrived != 6 || st.Completed != 6 {
		t.Fatalf("arrived %d completed %d, want 6/6", st.Arrived, st.Completed)
	}
	if st.WriteCompleted != 3 {
		t.Fatalf("write completed %d, want 3", st.WriteCompleted)
	}
	if st.WriteThroughput <= 0 || st.Throughput <= 0 {
		t.Fatalf("throughputs %v/%v", st.Throughput, st.WriteThroughput)
	}
	// 3 reads of ~1ms each: the read percentiles must not count writes.
	if st.Latency.P50 <= 0 {
		t.Fatal("read latency dist empty")
	}
	ts := sch.TenantStats(1)
	if ts[0].Completed != 3 {
		t.Fatalf("tenant completed %d, want 3 reads", ts[0].Completed)
	}
}
