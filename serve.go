package scanshare

import (
	"fmt"
	"time"

	"repro/internal/iosim"
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
	// AdmissionPolicy orders the scheduler's admission queue; register
	// custom implementations with RegisterAdmissionPolicy.
	AdmissionPolicy = sched.AdmissionPolicy
	// AdmissionPolicyConfig parameterizes admission-policy construction.
	AdmissionPolicyConfig = sched.PolicyConfig
	// PendingQuery is one query waiting in the admission queue, as an
	// AdmissionPolicy sees it.
	PendingQuery = sched.Pending
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

// RegisterAdmissionPolicy registers a custom admission-policy
// constructor; the built-in policies are "fifo", "sesf" and "wfq".
var RegisterAdmissionPolicy = sched.RegisterPolicy

// AdmissionPolicyNames lists the registered admission policies, sorted.
var AdmissionPolicyNames = sched.PolicyNames

// DefaultServeConfig re-exports the serving defaults: 64 streams,
// 8 qps/stream, MPL 8, 64-deep admission queue, 250 ms SLO.
func DefaultServeConfig() ServeConfig { return workload.DefaultServeConfig() }

// RunServe exposes the open-loop serving driver directly.
func RunServe(db *TPCHDB, cfg ServeConfig) *ServeResult { return workload.RunServe(db, cfg) }

// ServeOptions parameterizes the serving sweep (cmd/scanbench -serve):
// the cross product of the serving axes and the buffer policies, each
// cell run over Options.Streams open-loop client streams. The
// closed-vs-open-loop comparison (Compare) and the single-configuration
// consumers (NewServeEngineConfig) read the same options at one point.
type ServeOptions struct {
	Options
	// ServeAxes declares the serving axes and knobs (rates, MPLs,
	// devices, admission policies, selectivities, lifecycle and write
	// knobs, ...), field for field the scanbench command line.
	// Its Devices and StripeChunk shadow the per-run overrides of the
	// same names in Options: select them as o.ServeAxes.Devices.
	ServeAxes
	// Policies is the buffer-management axis (default LRU, Clock, PBM,
	// CScan).
	Policies []Policy
	// Real runs every cell on the real-threaded runtime (goroutines and
	// wall-clock time) instead of the deterministic simulator. Latencies
	// are then real milliseconds and runs are not reproducible.
	Real bool
}

// DefaultServeOptions returns the serving-sweep defaults.
func DefaultServeOptions() ServeOptions {
	return ServeOptions{
		Options: DefaultOptions(),
		ServeAxes: ServeAxes{
			Rates:             []float64{1, 5, 20},
			MPLs:              []int{8, 32},
			Devices:           []int{1},
			IOSchedulers:      []string{"fifo"},
			Tiers:             []string{"flat"},
			AdmissionPolicies: []string{"fifo"},
			Selectivities:     []float64{1},
			SLO:               250 * time.Millisecond,
		},
		Policies: []Policy{LRU, Clock, PBM, CScan},
	}
}

// orDefault keeps the elements of axis that pass keep (all of them when
// keep is nil), or the default axis when none is left.
func orDefault[T any](axis, def []T, keep func(T) bool) []T {
	var out []T
	for _, v := range axis {
		if keep == nil || keep(v) {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return def
	}
	return out
}

func (o ServeOptions) fill() ServeOptions {
	d := DefaultServeOptions()
	o.Options = o.Options.fill()
	o.Rates = orDefault(o.Rates, d.Rates, nil)
	o.MPLs = orDefault(o.MPLs, d.MPLs, nil)
	o.Policies = orDefault(o.Policies, d.Policies, nil)
	o.ServeAxes.Devices = orDefault(o.ServeAxes.Devices, d.ServeAxes.Devices, func(n int) bool { return n > 0 })
	o.IOSchedulers = orDefault(o.IOSchedulers, d.IOSchedulers, nil)
	o.Tiers = orDefault(o.Tiers, d.Tiers, nil)
	o.AdmissionPolicies = orDefault(o.AdmissionPolicies, d.AdmissionPolicies, nil)
	// Keep only meaningful selectivities (0 < sel <= 1); an empty axis
	// defaults to {1}, the unrestricted-scan baseline.
	o.Selectivities = orDefault(o.Selectivities, d.Selectivities, func(s float64) bool { return s > 0 && s <= 1 })
	return o
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

// validateAdmission panics on an unregistered admission-policy name,
// naming the registered menu. Sweeps call it before the expensive data
// generation so a typo from a library caller fails fast instead of
// panicking mid-sweep inside sched.New.
func validateAdmission(names ...string) {
	for _, name := range names {
		if _, ok := sched.NewPolicy(name, sched.PolicyConfig{}); !ok {
			panic(fmt.Sprintf("scanshare: unknown admission policy %q (registered: %v)",
				name, sched.PolicyNames()))
		}
	}
}

// validateTiers panics on an unknown tier name, naming the menu.
func validateTiers(names ...string) {
	for _, name := range names {
		switch name {
		case "flat", "tiered-rr", "tiered-temp":
		default:
			panic(fmt.Sprintf("scanshare: unknown tier %q (want flat, tiered-rr or tiered-temp)", name))
		}
	}
}

// serveCell is one point of the serving cross product. A zero rate, MPL
// or device count keeps DefaultServeConfig's value.
type serveCell struct {
	rate          float64
	mpl           int
	policy        Policy
	devices       int
	iosched, tier string
	admission     string
	sel           float64
}

// config maps one cell to the ServeConfig that runs it — the one
// options→config mapping: ServeSweep applies it per cell, Compare and
// NewServeEngineConfig at their single point. Defaults stay "" / nil
// rather than "fifo" / {1} so default cells are bit-identical to the
// engine that predates those axes. A tiered cell gets the round-robin
// fast tier; tiered-temp's heat placement needs a profiling run and is
// the sweep's to add.
func (o ServeOptions) config(c serveCell) ServeConfig {
	cfg := DefaultServeConfig()
	cfg.Config = o.apply(cfg.Config)
	cfg.Real = o.Real
	cfg.Policy = c.policy
	if c.rate > 0 {
		cfg.ArrivalRate = c.rate
	}
	if c.mpl > 0 {
		cfg.MPL = c.mpl
	}
	if c.devices > 0 {
		cfg.Devices = c.devices
	}
	if o.ServeAxes.StripeChunk > 0 {
		cfg.StripeChunk = o.ServeAxes.StripeChunk
	}
	if c.iosched != "fifo" {
		cfg.IOScheduler = c.iosched
	}
	if c.tier != "" && c.tier != "flat" {
		cfg.FastDevices = cfg.Devices / 2
		if cfg.FastDevices < 1 {
			cfg.FastDevices = 1
		}
	}
	cfg.AdmissionPolicy = c.admission
	if c.sel > 0 && c.sel < 1 {
		cfg.Selectivities = []float64{c.sel}
	}
	cfg.HotFrac, cfg.HotProb = o.HotFrac, o.HotProb
	cfg.Tenants, cfg.TenantWeights = o.Tenants, o.TenantWeights
	if o.QueueDepth != 0 {
		cfg.QueueDepth = o.QueueDepth
	}
	if o.SLO != 0 {
		cfg.SLO = o.SLO
	}
	cfg.Deadline, cfg.CancelRate = o.Deadline, o.CancelRate
	cfg.WriteFrac, cfg.CheckpointOps = o.WriteFrac, o.CheckpointOps
	return cfg
}

// first returns the axis's first element, or the zero value when the
// axis is unset.
func first[T any](axis []T) (v T) {
	if len(axis) > 0 {
		v = axis[0]
	}
	return v
}

// point is the cell a single-configuration consumer runs: the first
// element of each axis and, where an axis is unset, the serving
// defaults (DefaultServeConfig: 8 q/s, MPL 8, PBM, one fifo device,
// fifo admission) — not the sweep's first-of-axis ones.
func (o ServeOptions) point() serveCell {
	c := serveCell{
		rate: first(o.Rates), mpl: first(o.MPLs), policy: PBM,
		devices: first(o.ServeAxes.Devices),
		iosched: first(o.IOSchedulers), tier: first(o.Tiers),
		admission: first(o.AdmissionPolicies), sel: first(o.Selectivities),
	}
	if len(o.Policies) > 0 {
		c.policy = o.Policies[0]
	}
	return c
}

// ServeSweep runs the arrival-rate x MPL x buffer-policy x device-count
// x I/O-scheduler x tier x admission-policy x selectivity cross product
// and returns one row per cell, the innermost axes adjacent so each
// effect (striping, fifo/elevator seeks,
// flat/tiered placement, fifo/sesf/wfq SLOs, zone-map skipping) reads
// off one table. A "tiered-temp" cell runs twice: a profiling pass
// collects the per-chunk access heat under round-robin placement, then
// the measured pass re-runs with the hottest chunks placed on the fast
// tier. Unregistered admission-policy or tier names panic before any
// data is generated.
func ServeSweep(o ServeOptions) []ServeRow {
	o = o.fill()
	validateAdmission(o.AdmissionPolicies...)
	validateTiers(o.Tiers...)
	db := GenerateTPCHOpt(o.SF, o.Seed, TPCHGenOptions{ClusteredShipdate: o.Clustered})
	var out []ServeRow
	for _, rate := range o.Rates {
		for _, mpl := range o.MPLs {
			for _, pol := range o.Policies {
				for _, devices := range o.ServeAxes.Devices {
					for _, iosched := range o.IOSchedulers {
						for _, tier := range o.Tiers {
							for _, adm := range o.AdmissionPolicies {
								for _, sel := range o.Selectivities {
									cfg := o.config(serveCell{
										rate: rate, mpl: mpl, policy: pol, devices: devices,
										iosched: iosched, tier: tier, admission: adm, sel: sel,
									})
									if tier == "tiered-temp" {
										cfg.ChunkPlacement = heatPlacement(db, cfg)
									}
									out = append(out, ServeRowOf(workload.RunServe(db, cfg), cfg))
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// heatPlacement runs tiered-temp's profiling pass — the same cell under
// round-robin placement with heat collection on — and returns the chunk
// placement that puts the hottest chunks on the fast tier. The result is
// never nil, which is what labels the cell tiered-temp: under LRU and
// Clock, which keep no temperature map, it is empty and the array stays
// round-robin.
func heatPlacement(db *TPCHDB, cfg ServeConfig) []int {
	cfg.CollectBlockHeat = true
	heat := workload.ChunkHeat(workload.RunServe(db, cfg).BlockHeat, cfg.StripeChunk)
	fast := make([]int, cfg.FastDevices)
	for i := range fast {
		fast[i] = i
	}
	return append([]int{}, iosim.TemperaturePlacement(heat, cfg.Devices, fast)...)
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
// its next query). An unset rate defaults to 20 queries per second per
// stream, which overloads the default scale, where the disciplines
// diverge most visibly.
func Compare(o ServeOptions) CompareReport {
	o.Options = o.Options.fill()
	c := o.point()
	if c.rate <= 0 {
		c.rate = 20
	}
	if c.admission == "" {
		c.admission = "fifo"
	}
	validateAdmission(c.admission)
	validateTiers(o.Tiers...)
	db := GenerateTPCHOpt(o.SF, o.Seed, TPCHGenOptions{ClusteredShipdate: o.Clustered})
	cfg := o.config(c)
	res := workload.RunCompare(db, cfg)
	rep := CompareReport{Open: ServeRowOf(res.Open, cfg), Closed: ServeRowOf(res.Closed, cfg)}
	rep.GapP50ms = rep.Open.P50ms - rep.Closed.P50ms
	rep.GapP95ms = rep.Open.P95ms - rep.Closed.P95ms
	rep.GapP99ms = rep.Open.P99ms - rep.Closed.P99ms
	return rep
}
