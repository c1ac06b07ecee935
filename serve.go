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

// ServeOptions parameterizes the serving sweep (cmd/scanbench -serve):
// the cross product of the serving axes, each cell run over
// Options.Streams open-loop client streams. The closed-vs-open-loop
// comparison (Compare) and the single-configuration consumers
// (NewServeEngineConfig) read the same options at one point.
type ServeOptions struct {
	Options
	// ServeAxes holds the serving axes and knobs (rates, MPLs, buffer
	// and admission policies, devices, selectivities, lifecycle and write
	// knobs, ...), field for field the scanbench command line; unset axes
	// run at the sweep defaults its table declares. Its Devices and
	// StripeChunk shadow the per-run overrides of the same names in
	// Options: select them as o.ServeAxes.Devices.
	ServeAxes
	// Real runs every cell on the real-threaded runtime (goroutines and
	// wall-clock time) instead of the deterministic simulator. Latencies
	// are then real milliseconds and runs are not reproducible.
	Real bool
}

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
func (o ServeOptions) cells(sweep bool) []ServeConfig {
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
func ServeSweep(o ServeOptions) []ServeRow {
	o.Options = o.Options.fill()
	cells := o.cells(true)
	db := GenerateTPCHOpt(o.SF, o.Seed, TPCHGenOptions{ClusteredShipdate: o.Clustered})
	out := make([]ServeRow, len(cells))
	for i, c := range cells {
		out[i] = ServeRowOf(workload.RunServe(db, c), c)
	}
	return out
}

// CompareReport is the result of one closed-vs-open-loop comparison: the
// same sweep row shape for both disciplines, plus the latency gap the
// closed-loop measurement omits (coordinated omission).
type CompareReport struct {
	Open, Closed ServeRow
	// GapP50ms/GapP95ms/GapP99ms are open minus closed latency at each
	// percentile, in virtual ms: the queueing delay a closed-loop
	// benchmark hides from its latency report.
	GapP50ms, GapP95ms, GapP99ms float64
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
func Compare(o ServeOptions) CompareReport {
	o.Options = o.Options.fill()
	if len(o.Rates) == 0 {
		o.Rates = []float64{20}
	}
	c := o.cells(false)[0]
	db := GenerateTPCHOpt(o.SF, o.Seed, TPCHGenOptions{ClusteredShipdate: o.Clustered})
	closed := c
	closed.ClosedLoop = true
	rep := CompareReport{Open: ServeRowOf(RunServe(db, c), c), Closed: ServeRowOf(RunServe(db, closed), closed)}
	rep.GapP50ms = rep.Open.P50ms - rep.Closed.P50ms
	rep.GapP95ms = rep.Open.P95ms - rep.Closed.P95ms
	rep.GapP99ms = rep.Open.P99ms - rep.Closed.P99ms
	return rep
}
