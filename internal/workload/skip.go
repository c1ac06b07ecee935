package workload

import (
	"math/rand"

	"repro/internal/exec"
	"repro/internal/minmax"
	"repro/internal/tpch"
)

// anySelective reports whether any mix entry actually restricts a scan
// (selectivity below 1): only then is the zone-map machinery worth
// wiring up.
func anySelective(mixes ...[]float64) bool {
	for _, mix := range mixes {
		for _, sel := range mix {
			if sel > 0 && sel < 1 {
				return true
			}
		}
	}
	return false
}

// setupSkipping builds the lineitem l_shipdate zone map — block size =
// the ABM chunk granularity, so pruning decisions align with chunk
// boundaries — and wires pruning and the skip counters into the
// execution context. Pruning is a no-op for scans without a predicate,
// so wiring it changes nothing for runs that never carry one. The build
// reads stable storage directly (no modeled I/O), the way Vectorwise
// maintains MinMax indexes during load.
func (e *env) setupSkipping(db *tpch.DB) {
	snap := db.Snapshot("lineitem")
	col := db.Col("lineitem", "l_shipdate")
	e.Ctx.Zones = exec.NewZoneMaps()
	e.Ctx.Skip = &exec.SkipStats{}
	e.predIx = e.Ctx.Zones.Build(snap, col, e.cfg.ChunkTuples)
	e.predCol = col
	e.dateMin, e.dateMax, _ = e.predIx.ValueBounds()
}

// pickSelectivity draws one query's predicate selectivity from the mix;
// 1 means an unrestricted scan. The rng discipline is golden-critical:
// an empty mix draws nothing and a single-entry mix skips the mix draw,
// so configurations without a selectivity axis consume exactly the
// historical rng stream.
func pickSelectivity(rng *rand.Rand, mix []float64) float64 {
	switch len(mix) {
	case 0:
		return 1
	case 1:
		return mix[0]
	}
	return mix[rng.Intn(len(mix))]
}

// drawWindow draws one shipdate restriction: a value window spanning sel
// of the column's domain at a random position, or nil for an unrestricted
// scan (sel outside (0,1), or no zone maps wired). Consumes exactly one
// rng draw when the window is placeable and none otherwise
// (golden-critical).
func (e *env) drawWindow(rng *rand.Rand, sel float64) *exec.ScanPredicate {
	if sel <= 0 || sel >= 1 || e.predIx == nil {
		return nil
	}
	domain := e.dateMax - e.dateMin + 1
	span := int64(float64(domain)*sel + 0.5)
	if span < 1 {
		span = 1
	}
	lo := e.dateMin
	if maxStart := domain - span; maxStart > 0 {
		lo += rng.Int63n(maxStart + 1)
	}
	return &exec.ScanPredicate{Col: e.predCol, Lo: lo, Hi: lo + span - 1}
}

// survivingTuples prices a predicate scan for admission: the tuples the
// zone map says survive pruning. This is what makes EstimateScanTime
// skip-aware — a 1%-selective scan over clustered data is priced (and
// admitted under sesf/wfq) as ~100x cheaper than a full scan of the
// same range.
func (e *env) survivingTuples(r exec.RIDRange, pred *exec.ScanPredicate) int64 {
	if pred == nil || e.predIx == nil {
		return r.Hi - r.Lo
	}
	return e.predIx.CountRange(r.Lo, r.Hi, pred.Lo, pred.Hi)
}

// skipEnv is the per-env zone-map state (fields live on env; declared
// here with the machinery that uses them).
type skipEnv struct {
	predIx           *minmax.Index
	predCol          int
	dateMin, dateMax int64
}
