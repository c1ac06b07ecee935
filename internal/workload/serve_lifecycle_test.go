package workload

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/sim"
)

// lifecycleServeConfig overloads a tiny serving run so the lifecycle
// machinery actually fires: MPL 1 with fast arrivals builds a deep
// queue, a short deadline drops the queued tail, and a tight SLO makes
// the drawn cancel delays land while queries are still in flight.
func lifecycleServeConfig() ServeConfig {
	cfg := tinyServeConfig()
	cfg.MPL = 1
	cfg.ArrivalRate = 200
	cfg.QueueDepth = -1 // unbounded: every outcome is a lifecycle one
	cfg.SLO = 2 * time.Millisecond
	cfg.Deadline = 3 * time.Millisecond
	cfg.CancelRate = 0.3
	return cfg
}

// TestServeLifecycleInvariant: with deadlines and client cancels armed,
// every arrival must resolve to exactly one of the four outcomes under
// each admission policy (the run's closing Check asserts it), deadline
// kills and cancels must both actually occur, and dropped entries must
// be accounted in the separate queue-drop distribution rather than the
// completed-latency one.
func TestServeLifecycleInvariant(t *testing.T) {
	for _, pol := range []string{"fifo", "sesf", "wfq"} {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			cfg := lifecycleServeConfig()
			cfg.AdmissionPolicy = pol
			res := RunServe(tinyDB, cfg)
			st := res.Sched
			want := int64(cfg.Streams * cfg.QueriesPerStream)
			if st.Arrived != want {
				t.Fatalf("arrived %d, want %d", st.Arrived, want)
			}
			if st.TimedOut == 0 {
				t.Fatalf("no deadline kills under overload: %+v", st)
			}
			if st.Cancelled == 0 {
				t.Fatalf("no client cancels landed: %+v", st)
			}
			if st.Completed == 0 {
				t.Fatalf("no queries survived: %+v", st)
			}
			if st.QueueDrop.Max == 0 {
				t.Fatalf("queue drops not accounted in QueueDrop dist: %+v", st)
			}
		})
	}
}

// TestServeLifecycleDeterministic: the lifecycle path (deadline reaping,
// cancel hooks, queue drops) must preserve sim-mode reproducibility.
func TestServeLifecycleDeterministic(t *testing.T) {
	cfg := lifecycleServeConfig()
	a := RunServe(tinyDB, cfg)
	b := RunServe(tinyDB, cfg)
	if a.Sched != b.Sched {
		t.Fatalf("lifecycle run not bit-identical:\n%+v\n%+v", a.Sched, b.Sched)
	}
}

// TestServeLifecycleQueueDropKeepsLatencyClean: under overload with a
// deadline, the completed-query p95 must not exceed the same run's p95
// without deadlines — dead queued entries are dropped before occupying
// a slot and reported separately, so they cannot inflate the completed
// percentiles.
func TestServeLifecycleQueueDropKeepsLatencyClean(t *testing.T) {
	base := lifecycleServeConfig()
	base.Deadline = 0
	base.CancelRate = 0
	noDeadline := RunServe(tinyDB, base)

	withDeadline := lifecycleServeConfig()
	withDeadline.CancelRate = 0
	dl := RunServe(tinyDB, withDeadline)

	if dl.Sched.TimedOut == 0 {
		t.Fatalf("deadline run dropped nothing: %+v", dl.Sched)
	}
	if dl.Sched.Latency.P95 > noDeadline.Sched.Latency.P95 {
		t.Fatalf("completed p95 with queue drops %v exceeds no-deadline p95 %v",
			dl.Sched.Latency.P95, noDeadline.Sched.Latency.P95)
	}
}

// TestLiveHandleMatchesNilOnSim: on the simulator a lifecycle handle that
// is never cancelled changes nothing, which is what lets RunServe give
// every query one. Four staggered, overlapping scans — a Scan or a CScan
// each, or a four-part XChg of them — over a small pool with deep
// read-ahead, so reservations stall under the XChg plans, read the same
// bytes, end at the same virtual instants and leave the same pool, ABM
// and device counters with no handle as with a live one.
func TestLiveHandleMatchesNilOnSim(t *testing.T) {
	const queries = 4
	for _, pol := range []Policy{LRU, PBM, CScan} {
		for _, threads := range []int{1, 4} {
			run := func(live bool) Result {
				cfg := tinyServeConfig()
				cfg.Policy = pol
				cfg.ThreadsPerQuery = threads
				cfg.BufferFrac = 0.1
				cfg.ReadAheadTuples = 32768
				en := NewServeEngine(smallDB, cfg)
				r, n := en.RT, en.NumTuples()
				wg := r.NewWaitGroup()
				ends := make([]sim.Time, queries)
				for i := range ends {
					i := i
					wg.Add(1)
					r.Go("query", func() {
						defer wg.Done()
						r.Sleep(time.Duration(i) * time.Millisecond)
						var qc *exec.QueryCtx
						if live {
							qc = NewQueryCtx(en.RT, 0)
						}
						lo := int64(i) * n / 8
						plan, err := en.BuildPlan(qc, "scan", en.ClipRange(lo, lo+n/2), nil)
						if err != nil {
							panic(err)
						}
						exec.Drain(plan)
						ends[i] = r.Now()
					})
				}
				r.Go("driver", func() {
					wg.Wait()
					en.Close()
				})
				r.Run()
				return *en.finish(ends)
			}
			none, live := run(false), run(true)
			if !reflect.DeepEqual(none, live) {
				t.Errorf("%v, %d threads: a live handle changed the run:\nnone %+v\nlive %+v", pol, threads, none, live)
			}
			if none.PoolStats.Evictions+none.ABMStats.BytesEvicted == 0 {
				t.Errorf("%v, %d threads: nothing was evicted", pol, threads)
			}
			if pol != CScan && threads > 1 && none.PoolStats.Stalls == 0 {
				t.Errorf("%v, %d threads: no reservation stalled", pol, threads)
			}
		}
	}
}

// TestRunServeRealLifecycleSmoke is the satellite real-mode check: the
// full serving stack on the real-threaded runtime with deadlines and
// client cancels armed, under every admission policy. Run under -race
// this exercises the concurrent cancel paths (sched grant/drop race,
// buffer wake-on-cancel, XChg shutdown, iosim skip). Wall-clock timing
// decides which outcomes occur, so only termination and the arrival
// count are asserted here; the run's closing Check asserts the
// accounting.
func TestRunServeRealLifecycleSmoke(t *testing.T) {
	for _, pol := range []string{"fifo", "sesf", "wfq"} {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			cfg := tinyRealServeConfig()
			cfg.AdmissionPolicy = pol
			cfg.MPL = 1
			cfg.SLO = 10 * time.Millisecond
			cfg.Deadline = 5 * time.Millisecond
			cfg.CancelRate = 0.4
			ch := make(chan *ServeResult, 1)
			go func() { ch <- RunServe(tinyDB, cfg) }()
			var res *ServeResult
			select {
			case res = <-ch:
			case <-time.After(120 * time.Second):
				t.Fatal("real-mode lifecycle serve run hung")
			}
			st := res.Sched
			want := int64(cfg.Streams * cfg.QueriesPerStream)
			if st.Arrived != want {
				t.Fatalf("arrived %d, want %d", st.Arrived, want)
			}
		})
	}
}
