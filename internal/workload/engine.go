package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/pdt"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/wire"
)

// ServeEngine is the serving engine — runtime, disk array, buffer
// manager, admission scheduler, zone maps, PDT store, cost model — and
// the only one: the figure drivers (RunMicro, RunTPCH) and RunServe run
// bounded batches on it, on either runtime, and a network front end holds
// it open to admit, plan and execute queries for the life of a server
// process.
//
// It always wires the zone maps and the write path, since requests may
// carry arbitrary predicates and updates; both are inert until a query
// uses them. Methods are safe for concurrent use by handler goroutines.
type ServeEngine struct {
	Engine
	cfg ServeConfig
	db  *tpch.DB
	// result carries the run's sizing and collects what the engine
	// records as it runs: the OPT trace and the sharing samples.
	result *Result
	// dom is the table's value domain, read off the loaded snapshot's
	// l_shipdate zone map (see setupSkipping).
	dom Domain

	sch   *sched.Scheduler
	cost  exec.ScanCostModel
	start rt.Time

	// htap is the write path: the PDT store anchored at the catalog's
	// cached snapshot, the checkpoint trigger, and the merge measurement
	// windows.
	htap *htapState
	// ckptWG tracks in-flight background checkpoint goroutines so Close
	// does not stop the ABM under a running merge.
	ckptWG rt.WaitGroup

	// window is the stats window's opening clock reading plus one (so
	// zero means "not open yet"): stats measure the serving window, not
	// the time spent on setup or listening before traffic shows up.
	window atomic.Int64

	// rng draws server-side predicate windows and update targets for
	// requests that name a selectivity or an update kind rather than
	// explicit values; guarded because handlers race.
	mu  sync.Mutex
	rng *rand.Rand
}

// withDefaults resolves the zero fields of a serving configuration to
// their canonical values — the one place they are defaulted, and the
// form the engine runs and ServeRowOf labels a row from.
func (cfg ServeConfig) withDefaults() ServeConfig {
	d := DefaultServeConfig()
	if cfg.Devices <= 0 {
		cfg.Devices = 1
	}
	if cfg.IOScheduler == "" {
		cfg.IOScheduler = "fifo"
	}
	if cfg.Tier == "" {
		cfg.Tier = "flat"
	}
	if cfg.AdmissionPolicy == "" {
		cfg.AdmissionPolicy = "fifo"
	}
	if len(cfg.Selectivities) == 0 {
		// The one-element mix draws no coin: unrestricted scans, as in
		// the engine that predates the axis.
		cfg.Selectivities = []float64{1}
	}
	if cfg.QueriesPerStream <= 0 {
		cfg.QueriesPerStream = d.QueriesPerStream
	}
	if cfg.ArrivalRate <= 0 {
		cfg.ArrivalRate = d.ArrivalRate
	}
	if cfg.MPL <= 0 {
		cfg.MPL = d.MPL
	}
	if cfg.SLO == 0 {
		cfg.SLO = d.SLO
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = DefaultTenants
	}
	return cfg
}

// NewServeEngine builds a serving engine over the generated database,
// on the runtime cfg.Real selects, its pool sized against the §4.1
// accessed volume.
func NewServeEngine(db *tpch.DB, cfg ServeConfig) *ServeEngine {
	return newServeEngine(db, cfg, MicroAccessedBytes(db))
}

// newServeEngine builds the engine with a buffer of cfg.BufferFrac of
// accessedBytes (at least 256 KiB), recording the pool's references for
// an OPT replay when cfg.TraceForOPT asks.
func newServeEngine(db *tpch.DB, cfg ServeConfig, accessedBytes int64) *ServeEngine {
	cfg = cfg.withDefaults()
	weights := map[int]float64{}
	for i, w := range cfg.TenantWeights {
		if w > 0 {
			weights[i] = w
		}
	}
	capBytes := max(int64(cfg.BufferFrac*float64(accessedBytes)), 256<<10)
	en := &ServeEngine{
		Engine: NewEngine(cfg.Config, capBytes),
		cfg:    cfg,
		db:     db,
		result: &Result{Policy: cfg.Policy.String(), AccessedBytes: accessedBytes, BufferBytes: capBytes},
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.TraceForOPT && en.Pool != nil {
		// The pool calls OnAccess under its mutex: one append at a time, in
		// the order the pool served the references.
		en.Pool.OnAccess = func(p *storage.Page) {
			en.result.Trace = append(en.result.Trace, opt.Ref{Page: p.ID, Bytes: p.Bytes})
		}
	}
	en.setupSkipping(db)
	en.sch = sched.New(en.RT, sched.Config{
		MPL:           cfg.MPL,
		QueueDepth:    cfg.QueueDepth,
		SLO:           cfg.SLO,
		Policy:        cfg.AdmissionPolicy,
		TenantWeights: weights,
	})
	// Pricing a query takes the PBM mutex and averages observed speeds;
	// skip it entirely for policies that never read the estimate.
	if en.sch.UsesCost() {
		en.cost = en.costModel()
	}
	en.htap = en.newHTAP(db, cfg.CheckpointOps)
	en.ckptWG = en.RT.NewWaitGroup()
	en.start = en.RT.Now()
	return en
}

// costModel returns the admission cost hook: PBM's live estimate when
// predictive buffer management is active, a constant tuples-per-second
// model otherwise. Either way, a query's expected work scales with its
// scan length, which is what cost-aware admission orders by.
func (en *ServeEngine) costModel() exec.ScanCostModel {
	if en.PBM != nil {
		return en.PBM
	}
	return exec.FixedSpeedCost(simScanSpeed)
}

// Now reads the engine clock (nanoseconds since engine creation).
func (en *ServeEngine) Now() rt.Time { return en.RT.Now() }

// NumTuples is the lineitem row count — the bound request ranges are
// clipped to, exported on /statz so clients can draw ranges.
func (en *ServeEngine) NumTuples() int64 { return en.dom.Rows }

// Domain is the served table's value domain, exported on /statz so
// clients draw what the engine draws in process.
func (en *ServeEngine) Domain() Domain { return en.dom }

// TenantCount is the number of configured fairness domains.
func (en *ServeEngine) TenantCount() int { return en.cfg.Tenants }

// Config returns the engine's effective serving configuration.
func (en *ServeEngine) Config() ServeConfig { return en.cfg }

// Scheduler exposes the admission scheduler (drain, gauges, stats).
func (en *ServeEngine) Scheduler() *sched.Scheduler { return en.sch }

// NewQueryCtx mints a lifecycle handle on r's clock, armed with an
// end-to-end deadline relative to now when deadline is positive.
func NewQueryCtx(r rt.Runtime, deadline sim.Duration) *exec.QueryCtx {
	qc := exec.NewQueryCtx(r)
	if deadline > 0 {
		qc.SetDeadline(r.Now() + sim.Time(deadline))
	}
	return qc
}

// ClipRange clamps [lo, hi) to the table; hi <= 0 means the full table.
func (en *ServeEngine) ClipRange(lo, hi int64) exec.RIDRange {
	if hi <= 0 || hi > en.dom.Rows {
		hi = en.dom.Rows
	}
	if lo >= hi {
		lo = hi - 1
	}
	if lo < 0 {
		lo = 0
	}
	return exec.RIDRange{Lo: lo, Hi: hi}
}

// PredicateFor draws an l_shipdate window spanning sel of the date
// domain at a random position, on the engine-level rng, for requests
// that ask for a selectivity and have no stream of their own.
// Selectivities outside (0,1) mean an unrestricted scan (nil).
func (en *ServeEngine) PredicateFor(sel float64) *exec.ScanPredicate {
	en.mu.Lock()
	defer en.mu.Unlock()
	return en.dom.drawWindow(en.rng, sel)
}

// PredicateNamed builds an explicit [lo, hi] window on l_shipdate: the
// one zone-mapped column, and the one column every request kind (q1, q6,
// scan) reads, so its scans prune I/O on it and filter by it. Any other
// column is refused: a scan that does not read it could not filter on
// it.
func (en *ServeEngine) PredicateNamed(col string, lo, hi int64) (*exec.ScanPredicate, error) {
	if col != "l_shipdate" {
		return nil, fmt.Errorf("predicate column %q: only l_shipdate is supported", col)
	}
	if lo > hi {
		return nil, fmt.Errorf("empty predicate window [%d, %d]", lo, hi)
	}
	return &exec.ScanPredicate{Col: en.dom.ShipCol, Lo: lo, Hi: hi}, nil
}

// DrawUpdate completes an update request: the batch is clamped to [1,
// maxUpdateBatch], and a client's target is clamped into the table. A
// request without one has its position and synthesized date drawn on
// the engine-level rng, as PredicateFor draws a window.
func (en *ServeEngine) DrawUpdate(kind UpdateKind, batch int, target *wire.Target) Draw {
	op := UpdateOp{Kind: kind, Batch: min(max(batch, 1), maxUpdateBatch)}
	if target != nil {
		op.Frac, op.Date = en.dom.clampTarget(target.Frac, target.Date)
	} else {
		en.mu.Lock()
		op.Frac, op.Date = en.dom.drawUpdateTarget(en.rng)
		en.mu.Unlock()
	}
	return Draw{Write: true, Update: op}
}

// StoreVersion reports the PDT store's commit epoch and its
// committed-but-uncheckpointed operation count.
func (en *ServeEngine) StoreVersion() (version, pending int64) {
	return en.htap.store.Version(), en.htap.store.Pending()
}

// Checkpoints reports the completed background checkpoint/merge cycles.
func (en *ServeEngine) Checkpoints() int {
	c, _ := en.htap.mergeStats(nil)
	return c
}

// openWindow opens the stats window at the current clock reading,
// unless it is already open.
func (en *ServeEngine) openWindow() {
	en.window.CompareAndSwap(0, int64(en.RT.Now())+1)
}

// Admit runs the admission scheduler for q, blocking while queued; the
// first admission opens the stats window.
func (en *ServeEngine) Admit(q sched.Query) (*sched.Ticket, sched.AdmitOutcome) {
	en.openWindow()
	return en.sch.AdmitQueryOutcome(q)
}

// Request prices one query at its arrival and returns its admission
// request; both transports price through it. The price is the query's
// expected work in seconds from the cost model's current speed view, the
// estimate sesf orders the admission queue by: a read's tuples that
// survive zone-map pruning, a write's delta operations, in the one
// currency, so sesf/wfq weigh writes against scans directly. It stays
// zero when the admission policy never reads it.
func (en *ServeEngine) Request(stream, seq, tenant int, d Draw, qc *exec.QueryCtx) sched.Query {
	q := sched.Query{Stream: stream, Seq: seq, Tenant: tenant, Ctx: qc, Write: d.Write}
	if en.cost == nil {
		return q
	}
	work := int64(max(d.Update.Batch, 1))
	if !d.Write {
		work = en.survivingTuples(d.Range, d.Pred)
	}
	q.Cost = en.cost.EstimateScanTime(work).Seconds()
	return q
}

// Run admits one generated query and executes it to completion,
// discarding its rows: the in-process transport. A query that is
// rejected, times out or is cancelled while queued never runs.
func (en *ServeEngine) Run(q sched.Query, d Draw) {
	tk, outcome := en.Admit(q)
	if outcome != sched.AdmitGranted {
		return
	}
	if _, err := en.Execute(tk, q.Ctx, d, nil); err != nil {
		panic(err) // the generator draws only q1 and q6
	}
}

// Execute runs one admitted request to its end and resolves its ticket
// exactly once: the one request path, which Run drives in process and
// the HTTP server drives for its clients.
//
// A write already dead at its grant is skipped; otherwise it is applied,
// then the checkpoint trigger is checked. A read builds its plan and
// pulls every batch into emit: the caller consumes the batch before the
// next pull, so a slow consumer stalls the plan behind it. A nil emit
// discards the rows; an emit returning false is the client leaving, which
// cancels the query with CauseClientCancel and stops the pull. The ticket
// ends Cancel(cause) if the query died, Done otherwise. applied counts a
// write's delta operations; err is a plan or store failure.
func (en *ServeEngine) Execute(tk *sched.Ticket, qc *exec.QueryCtx, d Draw, emit func(*exec.Batch) bool) (applied int, err error) {
	if d.Write {
		if qc.Cancelled() {
			tk.Cancel(qc.Cause())
			return 0, nil
		}
		applied, err = en.htap.apply(d.Update, en.dom.ShipCol)
		tk.Done()
		en.htap.maybeCheckpoint(en.RT, en.ckptWG)
		return applied, err
	}
	plan, err := en.BuildPlan(qc, d.Kind, d.Range, d.Pred)
	if err != nil {
		tk.Done()
		return 0, err
	}
	exec.Run(plan, func(b *exec.Batch) bool {
		if emit != nil && !emit(b) {
			qc.Cancel(rt.CauseClientCancel)
			return false
		}
		return true
	})
	if qc.Cancelled() {
		tk.Cancel(qc.Cause())
	} else {
		tk.Done()
	}
	return 0, nil
}

// BuildPlan builds the physical plan of one request: "q1"/"q6" run the
// microbenchmark aggregations, "scan" streams the scanned rows
// themselves (the kind whose result volume makes client backpressure
// meaningful). The plan is bound to qc's lifecycle end to end, XChg
// fan-out included, and pins a (snapshot, PDT-version) view of the
// table at build time: a checkpoint committing mid-stream never tears
// the scan, and updates committed after the pin stay invisible to it.
func (en *ServeEngine) BuildPlan(qc *exec.QueryCtx, kind string, r exec.RIDRange, pred *exec.ScanPredicate) (exec.Op, error) {
	ctx := en.Ctx
	if qc != nil {
		ctx = ctx.WithQuery(qc)
	}
	view := en.htap.store.View()
	r = clipToView(r, view.NumTuples())
	build := en.builderCtx(ctx, view, pred)
	switch kind {
	case "q1", "q6":
		return en.microPlan(ctx, build, r, kind == "q1"), nil
	case "scan":
		return en.partition(ctx, r, func(pr exec.RIDRange) exec.Op {
			return build("lineitem", microColumns, []exec.RIDRange{pr}, false)
		}), nil
	}
	return nil, fmt.Errorf("unknown query kind %q (want q1, q6 or scan)", kind)
}

// builderCtx returns the ScanBuilder plans are built with, over an
// explicit execution context: the serving path passes a per-query
// WithQuery copy so every operator of the plan shares that query's
// lifecycle. The lineitem scan reads the pinned view — its stable
// snapshot merged with its flattened deltas, so a checkpoint committing
// mid-scan never tears it; other tables read the catalog's current
// snapshot.
//
// A non-nil pred restricts the lineitem scans, which prune their ranges
// by it at Open and filter every vector by it. Every plan that carries
// one (Q1, Q6, "scan") reads the predicate's column, l_shipdate.
func (en *ServeEngine) builderCtx(ctx *exec.Ctx, view pdt.View, pred *exec.ScanPredicate) tpch.ScanBuilder {
	return func(table string, cols []string, ranges []exec.RIDRange, inOrder bool) exec.Op {
		if inOrder {
			panic("workload: in-order scan delivery was removed; a plan must accept tuples in any order")
		}
		v, p := view, pred
		if table != "lineitem" {
			v, p = pdt.View{Stable: en.db.Snapshot(table)}, nil
		}
		idx := make([]int, len(cols))
		for i, c := range cols {
			idx[i] = en.db.Col(table, c)
		}
		return ctx.NewScan(v.Stable, idx, ranges, v.Deltas, p)
	}
}

// Close releases engine background work (the ABM's scheduler loop),
// waiting out any in-flight checkpoint/merge first. Call once, after
// the last query has resolved.
func (en *ServeEngine) Close() {
	en.ckptWG.Wait()
	if en.ABM != nil {
		en.ABM.Stop()
	}
}

// Check verifies every layer's books — the buffer pool or the ABM,
// whichever the policy runs, and the admission scheduler — each in its
// own critical section (see buffer.Pool.Check, abm.ABM.Check and
// sched.Scheduler.Check). With idle set it adds what holds only when no
// query is running. It returns nil or every violation found, each
// naming its layer.
func (en *ServeEngine) Check(idle bool) error {
	errs := []error{en.sch.Check(idle)}
	if en.Pool != nil {
		errs = append(errs, en.Pool.Check(idle))
	}
	if en.ABM != nil {
		errs = append(errs, en.ABM.Check(idle))
	}
	return errors.Join(errs...)
}

// Stats snapshots the run so far, safe to call concurrently with
// executing queries. Throughput and ElapsedSec are measured over the
// stats window — opened by RunServe at serving start, otherwise by the
// first admission — so a server that sat idle before traffic arrived
// reports the same numbers an in-process sweep of the same workload
// does; before the window opens they fall back to the engine's lifetime.
func (en *ServeEngine) Stats() *ServeResult {
	res := &ServeResult{Result: Result{
		Policy:        en.result.Policy,
		AccessedBytes: en.result.AccessedBytes,
		BufferBytes:   en.result.BufferBytes,
	}}
	en.snapshot(&res.Result)
	now, start := en.RT.Now(), en.start
	if w := en.window.Load(); w > 0 {
		start = rt.Time(w - 1)
	}
	res.Sched = en.sch.StatsSince(start, now)
	res.Tenants = en.sch.TenantStats(en.cfg.Tenants)
	res.Checkpoints, res.MergeP95 = en.htap.mergeStats(en.sch.Completed())
	res.ElapsedSec = (now - start).Seconds()
	return res
}

// snapshot fills the engine's live counters into r. It is safe to call
// concurrently with executing queries, which is what lets the long-lived
// serving engine and a finished bounded run share it.
func (en *ServeEngine) snapshot(r *Result) {
	if en.Pool != nil {
		r.PoolStats = en.Pool.Stats()
		r.TotalIOBytes = r.PoolStats.BytesLoaded
	}
	if en.ABM != nil {
		r.ABMStats = en.ABM.Stats()
		r.TotalIOBytes = r.ABMStats.BytesLoaded
	}
	r.RequestedTuples, r.SkippedTuples = en.Ctx.Skip.Counts()
	r.DiskStats = en.Disk.Stats()
}
