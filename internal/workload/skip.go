package workload

import (
	"math/rand"

	"repro/internal/exec"
	"repro/internal/tpch"
)

// setupSkipping builds the lineitem l_shipdate zone map — block size =
// the ABM chunk granularity, so pruning decisions align with chunk
// boundaries — and wires pruning and the skip counters into the
// execution context. Pruning is a no-op for scans without a predicate,
// so wiring it changes nothing for runs that never carry one. The build
// reads stable storage directly (no modeled I/O), the way Vectorwise
// maintains MinMax indexes during load.
func (en *ServeEngine) setupSkipping(db *tpch.DB) {
	snap := db.Snapshot("lineitem")
	col := db.Col("lineitem", "l_shipdate")
	en.Ctx.Zones = exec.NewZoneMaps()
	en.Ctx.Skip = &exec.SkipStats{}
	en.predIx = en.Ctx.Zones.Build(snap, col, en.cfg.ChunkTuples)
	en.predCol = col
	en.dateMin, en.dateMax, _ = en.predIx.ValueBounds()
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
// scan (sel outside (0,1)). Consumes exactly one rng draw when the
// window is placeable and none otherwise (golden-critical).
func (en *ServeEngine) drawWindow(rng *rand.Rand, sel float64) *exec.ScanPredicate {
	if sel <= 0 || sel >= 1 {
		return nil
	}
	domain := en.dateMax - en.dateMin + 1
	span := int64(float64(domain)*sel + 0.5)
	if span < 1 {
		span = 1
	}
	lo := en.dateMin
	if maxStart := domain - span; maxStart > 0 {
		lo += rng.Int63n(maxStart + 1)
	}
	return &exec.ScanPredicate{Col: en.predCol, Lo: lo, Hi: lo + span - 1}
}

// survivingTuples prices a predicate scan for admission: the tuples the
// zone map says survive pruning. This is what makes EstimateScanTime
// skip-aware — a 1%-selective scan over clustered data is priced (and
// admitted under sesf/wfq) as ~100x cheaper than a full scan of the
// same range.
func (en *ServeEngine) survivingTuples(r exec.RIDRange, pred *exec.ScanPredicate) int64 {
	if pred == nil {
		return r.Hi - r.Lo
	}
	return en.predIx.CountRange(r.Lo, r.Hi, pred.Lo, pred.Hi)
}
