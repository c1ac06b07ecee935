package workload

import (
	"math/rand"

	"repro/internal/exec"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Generator is the seeded client workload of a serving run, the one
// implementation of its per-stream draw sequence: RunServe feeds it to
// the engine in process, cmd/scanload sends it over HTTP.
type Generator struct {
	cfg ServeConfig
	dom Domain
}

// Domain is the served table's value domain: its row count, the
// l_shipdate column and that column's loaded bounds. Ranges, predicate
// windows and update targets are drawn in it — in process off the
// engine, over the socket off /v1/statz.
type Domain struct {
	Rows             int64
	ShipCol          int
	DateMin, DateMax int64
}

// drawWindow draws one shipdate restriction: a value window spanning sel
// of the column's domain at a random position, or nil for an unrestricted
// scan (sel outside (0,1)). Consumes exactly one rng draw when the
// window is placeable and none otherwise (golden-critical).
func (dom Domain) drawWindow(rng *rand.Rand, sel float64) *exec.ScanPredicate {
	if sel <= 0 || sel >= 1 {
		return nil
	}
	domain := dom.DateMax - dom.DateMin + 1
	span := int64(float64(domain)*sel + 0.5)
	if span < 1 {
		span = 1
	}
	lo := dom.DateMin
	if maxStart := domain - span; maxStart > 0 {
		lo += rng.Int63n(maxStart + 1)
	}
	return &exec.ScanPredicate{Col: dom.ShipCol, Lo: lo, Hi: lo + span - 1}
}

// drawUpdateTarget draws an update's position fraction and a synthesized
// shipdate inside the date bounds.
func (dom Domain) drawUpdateTarget(rng *rand.Rand) (frac float64, date int64) {
	frac = rng.Float64()
	return frac, dom.DateMin + rng.Int63n(dom.DateMax-dom.DateMin+1)
}

// clampTarget places a client's update target inside the table: the
// position fraction in [0, 1], the date within the bounds.
func (dom Domain) clampTarget(frac float64, date int64) (float64, int64) {
	return min(max(frac, 0), 1), min(max(date, dom.DateMin), dom.DateMax)
}

// The update kinds mix 1:1:2 insert:delete:modify — half modifies (the
// delta-widening stressor), inserts and deletes balancing each other.
// mixIns and mixDel are the kind coin's cumulative thresholds.
const mixIns, mixDel = 0.25, 0.5

// NewGenerator builds the workload cfg describes over a table with value
// domain dom.
func NewGenerator(cfg ServeConfig, dom Domain) *Generator {
	return &Generator{cfg: cfg.withDefaults(), dom: dom}
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
	// mix (1 = unrestricted) and Pred the window placed for it in the
	// domain.
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
	d.Range = RandRange(rng, st.g.dom.Rows, pct, cfg.HotFrac, cfg.HotProb)
	if rng.Intn(2) == 0 {
		d.Kind = "q1"
	}
	d.Selectivity = pickSelectivity(rng, cfg.Selectivities)
	d.Pred = st.g.dom.drawWindow(rng, d.Selectivity)
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
// date in the domain, then batch.
func (st *Stream) drawUpdate() UpdateOp {
	op := UpdateOp{Kind: UpdateModify}
	switch c := st.rng.Float64(); {
	case c < mixIns:
		op.Kind = UpdateInsert
	case c < mixDel:
		op.Kind = UpdateDelete
	}
	op.Frac, op.Date = st.g.dom.drawUpdateTarget(st.rng)
	op.Batch = 1 + st.rng.Intn(maxUpdateBatch)
	return op
}

// Drive issues the stream's queries on r, the one client loop of both
// transports. Per draw, in this golden-critical order: sleep the gap,
// mint the query's lifecycle handle with the configured deadline, spawn a
// "canceller" for a draw that abandons, and call issue in the stream's
// own process, so a transport prices the query at its arrival. What issue
// returns runs the query: in a "query" process of its own, or, closed
// loop, in the stream itself before the next draw. Every spawned process
// is counted on wg. RunServe's issue hands the query to the engine in
// process; cmd/scanload's sends it over HTTP.
func (st *Stream) Drive(r rt.Runtime, wg rt.WaitGroup, issue func(q int, d Draw, qc *exec.QueryCtx) func()) {
	cfg := &st.g.cfg
	for q := 0; q < cfg.QueriesPerStream; q++ {
		d := st.Next()
		r.Sleep(d.Gap)
		// Every query gets a lifecycle handle, as every server request
		// does. On the simulator one nobody cancels runs exactly as no
		// handle would.
		qc := NewQueryCtx(r, cfg.Deadline)
		if d.Cancel {
			wg.Add(1)
			r.Go("canceller", func() {
				defer wg.Done()
				r.Sleep(d.CancelAfter)
				qc.Cancel(rt.CauseClientCancel)
			})
		}
		run := issue(q, d, qc)
		if cfg.ClosedLoop {
			run()
			continue
		}
		wg.Add(1)
		r.Go("query", func() {
			defer wg.Done()
			run()
		})
	}
}
