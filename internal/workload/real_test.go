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
	open := RunServe(tinyDB, cfg)
	cfg.ClosedLoop = true
	closed := RunServe(tinyDB, cfg)
	if open.Sched.Completed == 0 || closed.Sched.Completed == 0 {
		t.Fatalf("empty runs: open %+v closed %+v", open.Sched, closed.Sched)
	}
	if open.Sched.Latency.P95 <= closed.Sched.Latency.P95 {
		t.Fatalf("open-loop p95 %v not above closed-loop p95 %v under overload",
			open.Sched.Latency.P95, closed.Sched.Latency.P95)
	}
	// The gap is queue wait: the closed loop self-throttles, so its queue
	// wait must be (weakly) smaller at the median too.
	if open.Sched.QueueWait.P50 < closed.Sched.QueueWait.P50 {
		t.Fatalf("open-loop queue wait p50 %v below closed-loop %v",
			open.Sched.QueueWait.P50, closed.Sched.QueueWait.P50)
	}
}

// TestRunCompareClosedLoopDeterministic: the closed-loop discipline must
// be as reproducible as the rest of the simulator.
func TestRunCompareClosedLoopDeterministic(t *testing.T) {
	cfg := tinyServeConfig()
	cfg.Policy = LRU
	cfg.ClosedLoop = true
	a := RunServe(tinyDB, cfg)
	b := RunServe(tinyDB, cfg)
	if a.Sched != b.Sched || a.AvgStreamSec != b.AvgStreamSec || a.MaxStreamSec != b.MaxStreamSec {
		t.Fatalf("closed-loop run not bit-identical:\n%+v\n%+v", a.Sched, b.Sched)
	}
}

// TestClosedLoopStreamClock: a closed-loop serving run reports the
// figures' stream clock. A stream ends when its last query completes, so
// the longest stream ends at the run's last completion, which on the
// simulator is the end of the stats window.
func TestClosedLoopStreamClock(t *testing.T) {
	cfg := tinyServeConfig()
	cfg.Policy = PBM
	cfg.ClosedLoop = true
	cfg.QueueDepth = -1 // every query completes
	res := RunServe(tinyDB, cfg)
	if want := int64(cfg.Streams * cfg.QueriesPerStream); res.Sched.Completed != want {
		t.Fatalf("%d of %d queries completed", res.Sched.Completed, want)
	}
	if last := res.Sched.Makespan.Seconds(); res.MaxStreamSec != last {
		t.Fatalf("max stream %vs, last completion at %vs", res.MaxStreamSec, last)
	}
	if res.AvgStreamSec <= 0 || res.AvgStreamSec > res.MaxStreamSec {
		t.Fatalf("avg stream %vs outside (0, max %vs]", res.AvgStreamSec, res.MaxStreamSec)
	}
}
