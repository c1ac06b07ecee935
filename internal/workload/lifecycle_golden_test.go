package workload

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sched"
)

// distStr renders a LatencyDist exactly as %+v did when the goldens were
// recorded. The golden files pin these bytes; keeping the formatter
// explicit (instead of %+v over the whole struct) lets sched.Stats grow
// lifecycle counters without invalidating goldens whose behavior is
// unchanged.
func distStr(d sched.LatencyDist) string {
	return fmt.Sprintf("{P50:%v P95:%v P99:%v Max:%v Mean:%v}", d.P50, d.P95, d.P99, d.Max, d.Mean)
}

// schedStr renders the pre-lifecycle sched.Stats fields byte-identically
// to the %+v output the golden files were recorded with.
func schedStr(s sched.Stats) string {
	return fmt.Sprintf("{Arrived:%d Completed:%d Rejected:%d MaxQueueDepth:%d Latency:%s QueueWait:%s Exec:%s SLOAttainment:%v Makespan:%v Throughput:%v}",
		s.Arrived, s.Completed, s.Rejected, s.MaxQueueDepth,
		distStr(s.Latency), distStr(s.QueueWait), distStr(s.Exec),
		s.SLOAttainment, s.Makespan, s.Throughput)
}

// lifecycleFingerprint renders a spread of sim-mode runs with NO deadline
// and NO cancellation configured, covering every path the query-lifecycle
// refactor touches: both scan operators (Scan through the pool, CScan
// through the ABM), a striped multi-device pool (owner-tagged device
// reads), a clustered selectivity sweep (the serve rng discipline must
// not consume extra draws when CancelRate is zero), and sesf serving
// (admission wait points become cancellation-aware). The file it is
// compared against was generated BEFORE QueryCtx was threaded through the
// engine, so a passing test proves the lifecycle-disabled path is
// bit-identical to the pre-refactor engine.
func lifecycleFingerprint() string {
	var b strings.Builder
	micro := func(name string, cfg Config) {
		res := RunMicro(tinyDB, cfg)
		fmt.Fprintf(&b, "micro/%s avg=%.9f max=%.9f io=%d\n",
			name, res.AvgStreamSec, res.MaxStreamSec, res.TotalIOBytes)
	}
	for _, pol := range []Policy{LRU, PBM, CScan} {
		cfg := tinyMicroConfig()
		cfg.Policy = pol
		micro("policy="+pol.String(), cfg)
	}
	striped := tinyMicroConfig()
	striped.Policy = PBM
	striped.Devices = 4
	striped.StripeChunk = 8
	micro("devices=4", striped)
	for _, pol := range []Policy{PBM, CScan} {
		cfg := tinyMicroConfig()
		cfg.Policy = pol
		cfg.Selectivities = []float64{0.05, 1}
		res := RunMicro(clusteredTinyDB, cfg)
		fmt.Fprintf(&b, "sweep/%s avg=%.9f max=%.9f io=%d skip=%d/%d\n",
			pol.String(), res.AvgStreamSec, res.MaxStreamSec, res.TotalIOBytes,
			res.SkippedTuples, res.RequestedTuples)
	}
	for _, pol := range []Policy{PBM, CScan} {
		cfg := tinyServeConfig()
		cfg.Policy = pol
		cfg.AdmissionPolicy = "sesf"
		res := RunServe(tinyDB, cfg)
		fmt.Fprintf(&b, "serve/%s sched=%s io=%d\n", pol.String(), schedStr(res.Sched), res.TotalIOBytes)
	}
	return b.String()
}

// TestLifecycleDisabledBitIdentical is the no-behavior-change regression
// of the query-lifecycle refactor: with no Deadline and zero CancelRate,
// every run must be bit-identical to the recorded pre-refactor output —
// no extra rng draws, no extra events, no reordered wake-ups. Regenerate
// with `go test -run LifecycleDisabled -update` ONLY for an intentional
// semantic change to the simulation.
func TestLifecycleDisabledBitIdentical(t *testing.T) {
	checkGolden(t, "lifecycle_golden.txt", lifecycleFingerprint())
}
