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
	ix := en.Ctx.Zones.Build(snap, col, en.cfg.ChunkTuples)
	en.dom = Domain{Rows: snap.NumTuples(), ShipCol: col}
	en.dom.DateMin, en.dom.DateMax, _ = ix.ValueBounds()
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

// survivingTuples prices a predicate scan for admission: the tuples the
// zone map of the store's current stable snapshot says survive pruning.
// This is what makes EstimateScanTime skip-aware — a 1%-selective scan
// over clustered data is priced (and admitted under sesf/wfq) as ~100x
// cheaper than a full scan of the same range. A checkpoint retiring the
// snapshot between the two reads drops its zone map; the range is then
// priced unpruned.
func (en *ServeEngine) survivingTuples(r exec.RIDRange, pred *exec.ScanPredicate) int64 {
	if pred == nil {
		return r.Hi - r.Lo
	}
	ix := en.Ctx.Zones.Lookup(en.htap.store.Stable(), pred.Col)
	if ix == nil {
		return r.Hi - r.Lo
	}
	return ix.CountRange(r.Lo, r.Hi, pred.Lo, pred.Hi)
}
