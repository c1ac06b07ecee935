package scanshare

import (
	"repro/internal/sched"
	"repro/internal/workload"
	"repro/wire"
)

// Serving surface: the open-loop, many-client scenario on top of the
// paper's engine. Unlike the closed-loop figure experiments, clients
// here generate queries on a Poisson arrival process and a multi-tenant
// scheduler admits them under an MPL limit through a bounded queue —
// the regime where overload, queue wait, and latency SLOs appear.
type (
	// ServeConfig parameterizes one open-loop serving run.
	ServeConfig = workload.ServeConfig
	// ServeResult reports one serving run (engine result + scheduler stats).
	ServeResult = workload.ServeResult
	// SchedConfig parameterizes the admission scheduler directly.
	SchedConfig = sched.Config
	// SchedStats is the scheduler's aggregate serving report.
	SchedStats = sched.Stats
	// TenantStat is one tenant's slice of the serving report.
	TenantStat = sched.TenantStat
	// LatencyDist summarizes a latency distribution (p50/p95/p99/max/mean).
	LatencyDist = sched.LatencyDist
	// QueryStat is one completed query's recorded life cycle.
	QueryStat = sched.QueryStat
	// Scheduler is the multi-tenant admission scheduler; embed one in a
	// custom System-based simulation via NewScheduler.
	Scheduler = sched.Scheduler
)

// NewScheduler creates an admission scheduler bound to the system's
// runtime, for custom serving scenarios built on System.
func (s *System) NewScheduler(cfg SchedConfig) *Scheduler {
	return sched.New(s.RT, cfg)
}

// AdmissionPolicyNames lists the admission policies ("fifo", "sesf",
// "wfq").
var AdmissionPolicyNames = sched.PolicyNames

// DefaultServeConfig re-exports the serving defaults: 64 streams,
// 8 qps/stream, MPL 8, 64-deep admission queue, 250 ms SLO.
func DefaultServeConfig() ServeConfig { return workload.DefaultServeConfig() }

// RunServe exposes the open-loop serving driver directly.
func RunServe(db *TPCHDB, cfg ServeConfig) *ServeResult { return workload.RunServe(db, cfg) }

// ServeRow is one cell of the serving sweep — a (rate, MPL, buffer
// policy, devices, admission policy, ...) configuration and its
// throughput/latency report, overall and per tenant — in the wire
// schema, the JSON shape shared by `scanbench -json`, scanserved's
// /statz and scanload's reports.
type ServeRow = wire.ServeStats

// ServeRowOf flattens one serving result into the sweep's row shape,
// labelled from the configuration of the run that produced it.
func ServeRowOf(res *ServeResult, cfg ServeConfig) ServeRow { return workload.ServeRowOf(res, cfg) }

// cells lands the axes on the serving defaults under the per-run
// overrides — the one options→config mapping: every cell of the cross
// product for ServeSweep, the single point Compare and
// NewServeEngineConfig run otherwise. An axis value off its menu or out
// of its range panics here, before any data is generated.
func (o Options) cells(sweep bool) []ServeConfig {
	base := DefaultServeConfig()
	base.Config = o.apply(base.Config)
	base.Real = o.Real
	cells, err := o.ServeAxes.Cells(base, sweep)
	if err != nil {
		panic("scanshare: " + err.Error())
	}
	return cells
}

// ServeSweep runs the arrival-rate x MPL x buffer-policy x device-count
// x I/O-scheduler x tier x admission-policy x selectivity cross product
// and returns one row per cell, the innermost axes adjacent so each
// effect (striping, fifo/elevator seeks, flat/tiered placement,
// fifo/sesf/wfq SLOs, zone-map skipping) reads off one table.
func ServeSweep(o Options) []ServeRow {
	o = o.fill()
	cells := o.cells(true)
	db := GenerateTPCHOpt(o.SF, o.Seed, TPCHGenOptions{ClusteredShipdate: o.Clustered})
	out := make([]ServeRow, len(cells))
	for i, c := range cells {
		out[i] = ServeRowOf(workload.RunServe(db, c), c)
	}
	return out
}

// Compare runs the closed-vs-open-loop comparison (cmd/scanbench
// -compare): one configuration — the first element of each axis of o —
// run twice over the identical query mix, once with open-loop Poisson
// arrivals and once closed-loop (each stream waits for completion before
// its next query). The two runs draw identical think-time and
// query-shape sequences; only the arrival discipline differs, so the
// latency gap between them is exactly the queueing delay closed-loop
// measurement omits (coordinated omission). An unset rate defaults to 20
// queries per second per stream, which overloads the default scale,
// where the disciplines diverge most visibly.
func Compare(o Options) (open, closed ServeRow) {
	o = o.fill()
	if len(o.Rates) == 0 {
		o.Rates = []float64{20}
	}
	openCfg := o.cells(false)[0]
	closedCfg := openCfg
	closedCfg.ClosedLoop = true
	db := GenerateTPCHOpt(o.SF, o.Seed, TPCHGenOptions{ClusteredShipdate: o.Clustered})
	return ServeRowOf(RunServe(db, openCfg), openCfg), ServeRowOf(RunServe(db, closedCfg), closedCfg)
}
