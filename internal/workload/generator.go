package workload

import (
	"math/rand"

	"repro/internal/exec"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Generator is the seeded client workload of a serving run, the one
// implementation of its per-stream draw sequence: RunServe feeds it to
// the engine in process, cmd/scanload sends it over HTTP.
type Generator struct {
	cfg ServeConfig
	n   int64
	// dom is the hook for the draws that need the served table's value
	// domain: where a predicate window of a given selectivity sits, and
	// which position and shipdate an update targets. A generator without
	// one (a socket client, whose server owns the domain) skips those
	// draws and leaves Draw.Pred nil and Draw.Update's Frac and Date
	// zero; the request then carries the selectivity or the update kind
	// and batch, and the server draws the rest.
	dom *ServeEngine
}

// The update kinds mix 1:1:2 insert:delete:modify — half modifies (the
// delta-widening stressor), inserts and deletes balancing each other.
// mixIns and mixDel are the kind coin's cumulative thresholds.
const mixIns, mixDel = 0.25, 0.5

// NewGenerator builds the workload cfg describes over a table of
// numTuples rows. dom is the engine whose domain places predicate
// windows and update targets, or nil when the server will.
func NewGenerator(cfg ServeConfig, numTuples int64, dom *ServeEngine) *Generator {
	return &Generator{cfg: cfg.withDefaults(), n: numTuples, dom: dom}
}

// Stream is one client stream's draw sequence.
type Stream struct {
	// Tenant is the stream's fairness domain (stream index % tenants).
	Tenant int

	g   *Generator
	rng *rand.Rand
}

// Stream returns client stream s, seeded from the config seed and s
// alone, so its sequence is the same whatever the other streams do.
func (g *Generator) Stream(s int) *Stream {
	return &Stream{
		Tenant: s % g.cfg.Tenants,
		g:      g,
		rng:    rand.New(rand.NewSource(g.cfg.Seed + int64(s)*6271)),
	}
}

// Draw is one generated query: the arrival gap that precedes it and its
// shape.
type Draw struct {
	// Gap is the Poisson inter-arrival (open loop) or think (closed
	// loop) time before the query is issued.
	Gap sim.Duration
	// Kind is "q1" or "q6" and Range the scanned row range; both are
	// drawn for every query, updates included, to keep the sequence
	// independent of the write coin.
	Kind  string
	Range exec.RIDRange
	// Selectivity is the predicate selectivity drawn from the configured
	// mix (1 = unrestricted) and Pred the window the domain hook placed
	// for it.
	Selectivity float64
	Pred        *exec.ScanPredicate
	// Cancel says the client abandons the query CancelAfter after
	// issuing it.
	Cancel      bool
	CancelAfter sim.Duration
	// Write says the query is the update statement Update, not a scan.
	Write  bool
	Update UpdateOp
}

// Next draws the stream's next query. The order is fixed and
// golden-critical: gap, range percent, range, q1 coin, selectivity and
// window, then the cancel draws, then the write coin and the update
// draws — each feature drawing only when it is on, so a run with it off
// consumes exactly the sequence it did before the feature existed.
func (st *Stream) Next() Draw {
	cfg, rng := &st.g.cfg, st.rng
	d := Draw{Gap: sched.ExpInterarrival(rng, cfg.ArrivalRate), Kind: "q6"}
	pct := cfg.RangePercents[rng.Intn(len(cfg.RangePercents))]
	d.Range = RandRange(rng, st.g.n, pct, cfg.HotFrac, cfg.HotProb)
	if rng.Intn(2) == 0 {
		d.Kind = "q1"
	}
	d.Selectivity = pickSelectivity(rng, cfg.Selectivities)
	if st.g.dom != nil {
		d.Pred = st.g.dom.drawWindow(rng, d.Selectivity)
	}
	if cfg.CancelRate > 0 {
		d.Cancel = rng.Float64() < cfg.CancelRate
		if d.Cancel {
			d.CancelAfter = sim.Duration(rng.Float64() * float64(cfg.SLO))
		}
	}
	if cfg.WriteFrac > 0 {
		d.Write = rng.Float64() < cfg.WriteFrac
		if d.Write {
			d.Update = st.drawUpdate()
		}
	}
	return d
}

// drawUpdate samples one update query's shape: kind, then position and
// date through the domain hook, then batch.
func (st *Stream) drawUpdate() UpdateOp {
	op := UpdateOp{Kind: UpdateModify}
	switch c := st.rng.Float64(); {
	case c < mixIns:
		op.Kind = UpdateInsert
	case c < mixDel:
		op.Kind = UpdateDelete
	}
	if st.g.dom != nil {
		op.Frac, op.Date = st.g.dom.drawUpdateTarget(st.rng)
	}
	op.Batch = 1 + st.rng.Intn(maxUpdateBatch)
	return op
}
