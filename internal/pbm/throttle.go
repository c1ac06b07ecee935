package pbm

import "repro/internal/sim"

// This file implements the "PBM Attach & Throttle" improvement sketched
// in §5 of the paper: under extreme memory pressure, PBM cannot exploit
// sharing because scans are scattered across the table and data is
// delivered in order. The paper proposes throttling a leading scan when
// the pages it just consumed would be evicted before reuse, so scans
// behind it catch up and groups form that share I/O (in the spirit of
// DB2's grouping/throttling [13,14]).
//
// The mechanism follows the paper's sketch directly:
//
//   - PBM tracks next_consumption_evict: an exponentially-weighted
//     average of the estimated next-consumption time of pages at the
//     moment they are evicted.
//   - After a scan consumes a page, the page gets a new next-consumption
//     estimate (from the next scan that wants it). If that estimate is
//     at or beyond next_consumption_evict, the page is likely to be
//     evicted before its reuse; if throttling the leading scan would pull
//     the trailing scan's arrival below the eviction horizon, PBM advises
//     the scan to throttle.
//
// Scan operators get the advice back from every progress report and
// sleep for it; see exec.Scan.Next.

// ThrottleConfig tunes the attach&throttle extension.
type ThrottleConfig struct {
	// Enabled switches the advice on.
	Enabled bool
	// Pause is the sleep a scan takes when advised to throttle.
	Pause sim.Duration
	// Margin scales the eviction horizon: a trailing scan must be within
	// Margin*next_consumption_evict for throttling to help.
	Margin float64
}

// DefaultThrottleConfig returns reasonable defaults (disabled).
func DefaultThrottleConfig() ThrottleConfig {
	return ThrottleConfig{Pause: 2e6, Margin: 1.0} // 2 ms pause
}

// noteEviction updates the eviction-horizon estimate with the evicted
// page's next-consumption time (if any scan still wanted it).
func (p *PBM) noteEviction(m *pageMeta) {
	d, ok := p.nextConsumption(m)
	if !ok {
		return
	}
	v := float64(d)
	if p.evictHorizon == 0 {
		p.evictHorizon = v
		return
	}
	p.evictHorizon = 0.8*p.evictHorizon + 0.2*v
}

// EvictionHorizon reports the current next_consumption_evict estimate in
// virtual nanoseconds (0 when no requested page was evicted yet).
func (p *PBM) EvictionHorizon() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evictHorizon
}

// ThrottleAdvice returns how long the given scan should pause to let
// trailing scans catch up; 0 means carry on. The test is the paper's:
// find the soonest trailing scan behind this one on overlapping pages; if
// the pages the leading scan is about to consume would next be consumed
// (by that trailing scan) beyond the eviction horizon, but throttling
// brings the gap within the horizon, advise the configured pause.
func (p *PBM) ThrottleAdvice(id ScanID) sim.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.throttleAdvice(p.scans[id])
}

// throttleAdvice is ThrottleAdvice for a scan's state (nil: unknown scan,
// no advice). Mutex held.
func (p *PBM) throttleAdvice(lead *scanState) sim.Duration {
	if !p.throttle.Enabled || p.evictHorizon <= 0 || lead == nil || lead.speed <= 0 {
		return 0
	}
	// Find the closest trailing scan: smallest positive tuple gap to any
	// other scan (an O(#scans) scan-position comparison; positions are
	// comparable because the workload's scans cover the same tables).
	// Ties break on the lower scan id: p.scans is a map, and letting its
	// iteration order decide between equally-distant trailers made the
	// throttle advice — and with it the whole PBM+throttle run —
	// nondeterministic even on the simulator.
	bestGap := int64(-1)
	var trailer *scanState
	for _, st := range p.scans {
		if st == lead {
			continue
		}
		gap := lead.tuplesConsumed - st.tuplesConsumed
		if gap <= 0 {
			continue
		}
		if bestGap < 0 || gap < bestGap || (gap == bestGap && st.id < trailer.id) {
			bestGap = gap
			trailer = st
		}
	}
	if trailer == nil {
		return 0
	}
	speed := trailer.speed
	if speed <= 0 {
		speed = p.cfg.DefaultSpeed
	}
	// Time until the trailer reaches the leader's current position.
	catchUp := float64(bestGap) / speed * 1e9
	// Pages just consumed by the leader will be wanted by the trailer in
	// ~catchUp ns. If that is beyond the eviction horizon they will be
	// evicted first — unless the leader slows down, keeping the gap (and
	// hence catchUp) bounded. Throttling only helps when the trailer is
	// close enough that a bounded pause can bridge the gap; for distant
	// trailers it just slows the system, so the advice window is capped.
	if lo := p.evictHorizon * p.throttle.Margin; catchUp >= lo && catchUp <= lo*8 {
		return p.throttle.Pause
	}
	return 0
}

// SetThrottle configures the attach&throttle extension.
func (p *PBM) SetThrottle(cfg ThrottleConfig) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.throttle = cfg
}
