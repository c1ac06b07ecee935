package workload

import (
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/sched"
)

// simServeEngine builds a PBM serving engine on the simulator with one
// thread per query, so a scan emits whole vectors in table order.
func simServeEngine(admission string, mpl int) *ServeEngine {
	cfg := tinyServeConfig()
	cfg.Policy = PBM
	cfg.ThreadsPerQuery = 1
	cfg.AdmissionPolicy = admission
	cfg.MPL = mpl
	return NewServeEngine(tinyDB, cfg)
}

// runScripted runs each scripted client as a simulated process, then
// closes the engine once they have all returned.
func runScripted(en *ServeEngine, clients ...func()) {
	r := en.RT
	wg := r.NewWaitGroup()
	for _, c := range clients {
		c := c
		wg.Add(1)
		r.Go("client", func() {
			defer wg.Done()
			c()
		})
	}
	r.Go("driver", func() {
		wg.Wait()
		en.Close()
	})
	r.Run()
}

// submit admits one request and, once granted, executes it into emit.
func submit(en *ServeEngine, seq int, d Draw, emit func(*exec.Batch) bool) (*exec.QueryCtx, sched.AdmitOutcome) {
	qc := NewQueryCtx(en.RT, 0)
	tk, out := en.Admit(en.Request(seq, 0, 0, d, qc))
	if out == sched.AdmitGranted {
		if _, err := en.Execute(tk, qc, d, emit); err != nil {
			panic(err)
		}
	}
	return qc, out
}

// fullScan is a scan request over the whole table with no predicate.
func fullScan(en *ServeEngine) Draw {
	return Draw{Kind: "scan", Range: en.ClipRange(0, 0)}
}

// TestExecuteSlowReaderSim: a reader that takes one virtual ms per batch
// receives every row in exactly ⌈rows/VectorSize⌉ batches, the plan
// waiting on it each time, so the query executes for at least that long.
func TestExecuteSlowReaderSim(t *testing.T) {
	type outcome struct {
		batches int
		rows    int64
		stat    sched.QueryStat
	}
	run := func() outcome {
		en := simServeEngine("fifo", 1)
		r := en.RT
		var o outcome
		runScripted(en, func() {
			submit(en, 0, fullScan(en), func(b *exec.Batch) bool {
				r.Sleep(time.Millisecond)
				o.batches++
				o.rows += int64(b.N)
				return true
			})
		})
		done := en.Scheduler().Completed()
		if len(done) != 1 {
			t.Fatalf("%d completed queries, want 1", len(done))
		}
		o.stat = done[0]
		return o
	}
	o := run()
	n := tinyDB.Snapshot("lineitem").NumTuples()
	if want := int((n + exec.VectorSize - 1) / exec.VectorSize); o.rows != n || o.batches != want {
		t.Errorf("reader saw %d rows in %d batches, want %d in %d", o.rows, o.batches, n, want)
	}
	if floor := time.Duration(o.batches) * time.Millisecond; o.stat.ExecTime() < floor {
		t.Errorf("executed for %v, want at least %v (one ms per batch)", o.stat.ExecTime(), floor)
	}
	if again := run(); again != o {
		t.Errorf("second run differs: %+v vs %+v", again, o)
	}
}

// TestExecuteClientLeavesSim: a reader that refuses batch k has received
// exactly k batches, the query resolves client-cancel, and every layer's
// books balance at idle.
func TestExecuteClientLeavesSim(t *testing.T) {
	const k = 3
	type outcome struct {
		got   int
		stats sched.Stats
	}
	run := func() outcome {
		en := simServeEngine("fifo", 1)
		var o outcome
		var qc *exec.QueryCtx
		runScripted(en, func() {
			qc, _ = submit(en, 0, fullScan(en), func(*exec.Batch) bool {
				o.got++
				return o.got < k
			})
		})
		if qc.Cause() != exec.CauseClientCancel {
			t.Errorf("query cause %v, want client-cancel", qc.Cause())
		}
		if killed := en.Scheduler().Killed(); len(killed) != 1 || killed[0].Cause != exec.CauseClientCancel {
			t.Errorf("killed queries %+v, want one client-cancel", killed)
		}
		if err := en.Check(true); err != nil {
			t.Error(err)
		}
		o.stats = en.Stats().Sched
		return o
	}
	o := run()
	st := o.stats
	if o.got != k {
		t.Errorf("reader received %d batches, want %d", o.got, k)
	}
	if st.Arrived != 1 || st.Cancelled != 1 {
		t.Errorf("ledger %+v, want one arrival resolved cancelled", st)
	}
	if again := run(); again != o {
		t.Errorf("second run differs: %+v vs %+v", again, o)
	}
}

// TestExecuteDrainSim: at MPL 1 with a slow reader running and four
// requests queued behind it, a Drain still runs the queued four to
// completion, and a later admission is refused without counting as an
// arrival, under every admission policy.
func TestExecuteDrainSim(t *testing.T) {
	const drainAt, lateAt = 5 * time.Millisecond, 10 * time.Millisecond
	type outcome struct {
		running, queued int
		late            sched.AdmitOutcome
		stats           sched.Stats
	}
	run := func(pol string) outcome {
		en := simServeEngine(pol, 1)
		r, sch := en.RT, en.Scheduler()
		var o outcome
		clients := []func(){
			func() {
				submit(en, 0, fullScan(en), func(*exec.Batch) bool {
					r.Sleep(time.Millisecond)
					return true
				})
			},
			func() {
				r.Sleep(drainAt)
				sch.Drain()
				o.running, o.queued = sch.Running(), sch.Queued()
			},
			func() {
				r.Sleep(lateAt)
				_, o.late = submit(en, 5, Draw{Kind: "q6", Range: en.ClipRange(0, 0)}, nil)
			},
		}
		for i := 1; i <= 4; i++ {
			i, d := i, Draw{Kind: "q6", Range: en.ClipRange(0, int64(i)*1000)}
			clients = append(clients, func() {
				r.Sleep(time.Microsecond) // behind the slow reader
				submit(en, i, d, nil)
			})
		}
		runScripted(en, clients...)
		if err := en.Check(true); err != nil {
			t.Errorf("%s: %v", pol, err)
		}
		o.stats = en.Stats().Sched
		return o
	}
	for _, pol := range []string{"fifo", "sesf", "wfq"} {
		o := run(pol)
		st := o.stats
		if o.running != 1 || o.queued != 4 {
			t.Errorf("%s: at the drain %d running, %d queued; want 1 and 4", pol, o.running, o.queued)
		}
		if o.late != sched.AdmitDraining {
			t.Errorf("%s: late admission %v, want draining", pol, o.late)
		}
		if st.Arrived != 5 || st.Completed != 5 || st.DrainRejected != 1 {
			t.Errorf("%s: arrived %d completed %d drain-refused %d; want 5, 5, 1", pol, st.Arrived, st.Completed, st.DrainRejected)
		}
		if again := run(pol); again != o {
			t.Errorf("%s: second run differs: %+v vs %+v", pol, again, o)
		}
	}
}
