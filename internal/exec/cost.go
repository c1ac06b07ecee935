package exec

import (
	"repro/internal/pbm"
	"repro/internal/sim"
)

// The PBM policy provides the live implementation of the cost hook.
var _ ScanCostModel = (*pbm.PBM)(nil)

// ScanCostModel estimates the expected execution time of a scan over n
// tuples — the per-query expected-work signal a cost-aware admission
// policy (sched's shortest-expected-scan-first) orders by. The PBM
// policy implements it from its live scan-speed estimates;
// FixedSpeedCost is the fallback for buffer policies with no prediction
// machinery.
type ScanCostModel interface {
	// EstimateScanTime predicts how long a fresh scan over tuples tuples
	// will take. Non-positive tuple counts yield zero.
	EstimateScanTime(tuples int64) sim.Duration
}

// FixedSpeedCost prices scans at a constant speed in tuples per second:
// expected work stays proportional to scan length, which is all a
// relative-ordering policy needs when no observed speeds exist.
type FixedSpeedCost float64

// EstimateScanTime implements ScanCostModel.
func (s FixedSpeedCost) EstimateScanTime(tuples int64) sim.Duration {
	if s <= 0 || tuples <= 0 {
		return 0
	}
	return sim.Duration(float64(tuples) / float64(s) * 1e9)
}
