package workload

import (
	"testing"
	"time"
)

// tinyRealServeConfig shrinks the serving run so a wall-clock run stays
// well under a second: high arrival rate, few queries, fast modeled disk.
func tinyRealServeConfig() ServeConfig {
	cfg := tinyServeConfig()
	cfg.Real = true
	cfg.Streams = 8
	cfg.QueriesPerStream = 2
	cfg.ArrivalRate = 200
	cfg.BandwidthMB = 4000
	cfg.ThreadsPerQuery = 2 // exercise the real XChg worker-pool path
	return cfg
}

// TestRunServeRealSmoke runs the full serving stack — open-loop clients,
// scheduler, buffer pool (and the ABM for CScan) — on the real-threaded
// runtime. Run under -race this is the end-to-end concurrency check of
// the Runtime refactor.
func TestRunServeRealSmoke(t *testing.T) {
	for _, pol := range []Policy{LRU, PBM, CScan} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := tinyRealServeConfig()
			cfg.Policy = pol
			type outcome struct{ res *ServeResult }
			ch := make(chan outcome, 1)
			go func() { ch <- outcome{RunServe(tinyDB, cfg)} }()
			var res *ServeResult
			select {
			case o := <-ch:
				res = o.res
			case <-time.After(120 * time.Second):
				t.Fatal("real-mode serve run hung")
			}
			want := int64(cfg.Streams * cfg.QueriesPerStream)
			if res.Sched.Arrived != want {
				t.Fatalf("arrived %d, want %d", res.Sched.Arrived, want)
			}
			if res.Sched.Completed+res.Sched.Rejected != res.Sched.Arrived {
				t.Fatalf("accounting leak: %+v", res.Sched)
			}
			if res.Sched.Completed > 0 && res.Sched.Latency.P50 <= 0 {
				t.Fatalf("no wall-clock latency recorded: %+v", res.Sched.Latency)
			}
			if res.TotalIOBytes <= 0 {
				t.Fatal("no I/O recorded")
			}
		})
	}
}

func TestRunMicroRealSmoke(t *testing.T) {
	cfg := tinyMicroConfig()
	cfg.Real = true
	cfg.Streams = 2
	cfg.QueriesPerStream = 2
	cfg.BandwidthMB = 4000
	res := RunMicro(tinyDB, cfg)
	if res.AvgStreamSec <= 0 || res.TotalIOBytes <= 0 {
		t.Fatalf("bad real-mode result: %+v", res)
	}
}

// TestRunCompareShowsCoordinatedOmission: under overload, the open-loop
// latency distribution must dominate the closed-loop one — the queueing
// delay closed-loop measurement hides. Run on the simulator so the
// assertion is deterministic.
func TestRunCompareShowsCoordinatedOmission(t *testing.T) {
	cfg := tinyServeConfig()
	cfg.Policy = PBM
	cfg.MPL = 2
	cfg.QueueDepth = -1 // rejections would cap the open-loop queue
	cfg.QueriesPerStream = 6
	cfg.ArrivalRate = 500 // far beyond capacity at MPL 2
	res := RunCompare(tinyDB, cfg)
	if res.Open.Sched.Completed == 0 || res.Closed.Sched.Completed == 0 {
		t.Fatalf("empty runs: open %+v closed %+v", res.Open.Sched, res.Closed.Sched)
	}
	if res.Open.Sched.Latency.P95 <= res.Closed.Sched.Latency.P95 {
		t.Fatalf("open-loop p95 %v not above closed-loop p95 %v under overload",
			res.Open.Sched.Latency.P95, res.Closed.Sched.Latency.P95)
	}
	// The gap is queue wait: the closed loop self-throttles, so its queue
	// wait must be (weakly) smaller at the median too.
	if res.Open.Sched.QueueWait.P50 < res.Closed.Sched.QueueWait.P50 {
		t.Fatalf("open-loop queue wait p50 %v below closed-loop %v",
			res.Open.Sched.QueueWait.P50, res.Closed.Sched.QueueWait.P50)
	}
}

// TestRunCompareClosedLoopDeterministic: the new closed-loop discipline
// must be as reproducible as the rest of the simulator.
func TestRunCompareClosedLoopDeterministic(t *testing.T) {
	cfg := tinyServeConfig()
	cfg.Policy = LRU
	cfg.ClosedLoop = true
	a := RunServe(tinyDB, cfg)
	b := RunServe(tinyDB, cfg)
	if a.Sched != b.Sched {
		t.Fatalf("closed-loop run not bit-identical:\n%+v\n%+v", a.Sched, b.Sched)
	}
}
