package workload

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/sched"
)

// ServeAxes is the one declaration of every serving axis and knob:
// RegisterFlags binds the scanbench-style flags, Parse validates and
// materializes the typed values, and the scope and side helpers answer
// "which of the set flags are illegal in this mode or this binary". The
// serving sweep's options embed it, so the field list is not repeated.
//
// Multi-valued fields are sweep axes — each cell of the sweep runs once
// per element, rows adjacent, so the effect reads off one table — and a
// single-configuration consumer (-compare, scanserved, scanload) takes
// the first element. Zero values mean "not set" and leave the defaults
// in charge.
type ServeAxes struct {
	// Rates is the per-stream arrival rate in queries per second (sweep
	// default {1, 5, 20}: light load, near saturation, overload at the
	// default scale).
	Rates []float64
	// MPLs is the scheduler's concurrency limit (sweep default {8, 32}).
	MPLs []int
	// Devices is the disk-array spindle count (default {1}). It applies
	// to CScan rows too — the ABM reads through the same array.
	Devices []int
	// StripeChunk overrides the array striping granularity in blocks for
	// every multi-device cell (0 = iosim.DefaultStripeChunk).
	StripeChunk int
	// IOSchedulers is the device queue discipline (default {"fifo"},
	// bit-identical to the pre-scheduler engine; "elevator" runs a C-SCAN
	// sweep per spindle).
	IOSchedulers []string
	// Tiers is the heterogeneous-array axis (default {"flat"}, every
	// spindle identical): "tiered-rr" makes the first half of the devices
	// an SSD-like fast tier (zero seek, 4x bandwidth) with round-robin
	// chunk placement; "tiered-temp" additionally runs a profiling pass
	// first and places the hottest chunks on the fast tier via
	// iosim.TemperaturePlacement.
	Tiers []string
	// StripeRowRA deepens scan read-ahead to one full stripe row on
	// multi-device arrays (see Config.StripeRowRA).
	StripeRowRA bool
	// IOPriority threads each query's admission-policy signal down to
	// the device queue (see ServeConfig.IOPriority).
	IOPriority bool
	// HotFrac and HotProb skew the query mix's range starts: with
	// probability HotProb a query's scan range is drawn inside the first
	// HotFrac of the table (the access skew temperature placement
	// exploits). Zero keeps the historical uniform draws.
	HotFrac float64
	HotProb float64
	// AdmissionPolicies names the admission policy (default {"fifo"});
	// names must be registered (see sched.PolicyNames).
	AdmissionPolicies []string
	// Tenants is the number of fairness domains streams map onto (stream
	// s belongs to tenant s % Tenants; 0 => DefaultTenants), and
	// TenantWeights their wfq fair-share weights by tenant id (missing or
	// non-positive entries weigh 1).
	Tenants       int
	TenantWeights []float64
	// Selectivities is the predicate selectivity (default {1},
	// unrestricted scans, bit-identical to the pre-skipping engine):
	// below 1, every query carries an l_shipdate window spanning that
	// fraction of the date domain, pushed down to the scans.
	Selectivities []float64
	// Clustered generates lineitem sorted by l_shipdate, giving the zone
	// maps physical structure to exploit; without it TPC-H shipdates are
	// near-uniform per block and nothing prunes.
	Clustered bool
	// QueueDepth bounds the admission queue (0 => default 64, negative =>
	// unbounded) and SLO is the latency objective (0 => 250 ms).
	QueueDepth int
	SLO        time.Duration
	// Deadline and CancelRate arm the query lifecycle (see
	// ServeConfig.Deadline and CancelRate); zero keeps every cell
	// bit-identical to the lifecycle-free sweep.
	Deadline   time.Duration
	CancelRate float64
	// WriteFrac makes that fraction of every stream's queries updates and
	// CheckpointOps triggers a background checkpoint/merge once that many
	// committed update operations are pending (see ServeConfig); zero
	// keeps the read-only stream and never checkpoints.
	WriteFrac     float64
	CheckpointOps int
	// JSONOut is the -json output path of the command-line binaries.
	JSONOut string

	raw struct {
		rates, mpls, devices     string
		iosched, tiers, policies string
		weights, sels            string
	}
}

// Axis scopes: where a flag is legal. Figure-scoped flags double as
// per-run overrides of the figure experiments and are never rejected.
type axisScope int

const (
	scopeFigure axisScope = iota
	scopeServeCompare
	scopeServe
)

// Axis sides: which end of the socket a flag configures. Client-mix
// flags shape the traffic a load generator offers and server-shaping
// flags the engine that serves it; scanbench, holding both ends in one
// process, takes either, scanserved rejects the former and scanload the
// latter.
type axisSide int

const (
	sideServer axisSide = iota
	sideClient
	sideBoth
)

// axisFlag describes one registered flag: its name, where it is legal,
// which end of the socket it configures, and whether the command line
// set it (by value, matching the historical checks — an explicit
// `-rowra=false` counts as unset).
type axisFlag struct {
	name  string
	scope axisScope
	side  axisSide
	set   func() bool
}

func (a *ServeAxes) flagTable() []axisFlag {
	return []axisFlag{
		{"rates", scopeServeCompare, sideClient, func() bool { return a.raw.rates != "" }},
		{"mpls", scopeServeCompare, sideServer, func() bool { return a.raw.mpls != "" }},
		{"devices", scopeFigure, sideServer, func() bool { return a.raw.devices != "" }},
		{"stripe", scopeFigure, sideServer, func() bool { return a.StripeChunk != 0 }},
		{"iosched", scopeServe, sideServer, func() bool { return a.raw.iosched != "" }},
		{"tiers", scopeServe, sideServer, func() bool { return a.raw.tiers != "" }},
		{"rowra", scopeServe, sideServer, func() bool { return a.StripeRowRA }},
		{"ioprio", scopeServe, sideServer, func() bool { return a.IOPriority }},
		{"hotfrac", scopeServe, sideClient, func() bool { return a.HotFrac != 0 }},
		{"hotprob", scopeServe, sideClient, func() bool { return a.HotProb != 0 }},
		{"json", scopeServe, sideClient, func() bool { return a.JSONOut != "" }},
		{"policies", scopeServeCompare, sideServer, func() bool { return a.raw.policies != "" }},
		{"tenants", scopeServeCompare, sideServer, func() bool { return a.Tenants != 0 }},
		{"weights", scopeServeCompare, sideServer, func() bool { return a.raw.weights != "" }},
		{"queue", scopeServeCompare, sideServer, func() bool { return a.QueueDepth != 0 }},
		// The server measures SLO attainment against -slo; the load
		// generator draws its cancel delays inside it.
		{"slo", scopeServeCompare, sideBoth, func() bool { return a.SLO != 0 }},
		{"selectivities", scopeServe, sideClient, func() bool { return a.raw.sels != "" }},
		{"clustered", scopeServe, sideServer, func() bool { return a.Clustered }},
		{"deadline", scopeServe, sideClient, func() bool { return a.Deadline != 0 }},
		{"cancel", scopeServe, sideClient, func() bool { return a.CancelRate != 0 }},
		{"writefrac", scopeServe, sideClient, func() bool { return a.WriteFrac != 0 }},
		{"ckptops", scopeServe, sideServer, func() bool { return a.CheckpointOps != 0 }},
	}
}

// RegisterFlags binds every serving flag onto fs with the historical
// names and usage strings. Call Parse after fs.Parse.
func (a *ServeAxes) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&a.raw.rates, "rates", "", "serve: comma-separated per-stream arrival rates in queries/s (default 1,5,20); -compare uses the first")
	fs.StringVar(&a.raw.mpls, "mpls", "", "serve: comma-separated MPL concurrency limits (default 8,32); -compare uses the first")
	fs.StringVar(&a.raw.devices, "devices", "", "disk-array spindle counts: a comma-separated axis for -serve (default 1); the first value overrides the figure experiments' and -compare's single device")
	fs.IntVar(&a.StripeChunk, "stripe", 0, "disk-array stripe chunk in blocks (0 = default 16); meaningful with -devices > 1")
	fs.StringVar(&a.raw.iosched, "iosched", "", "serve: comma-separated device queue disciplines (fifo, elevator; default fifo); elevator services each spindle's queue as a C-SCAN sweep")
	fs.StringVar(&a.raw.tiers, "tiers", "", "serve: comma-separated array tierings (flat, tiered-rr, tiered-temp; default flat); tiered cells make the first half of the devices an SSD-like fast tier, tiered-temp places the hottest chunks there from a profiling pass")
	fs.BoolVar(&a.StripeRowRA, "rowra", false, "serve: deepen scan read-ahead to one full stripe row on multi-device arrays (device-aware batch sizing)")
	fs.BoolVar(&a.IOPriority, "ioprio", false, "serve: thread the admission policy's signal (wfq weight / sesf cost) to the device queue as per-query I/O priority")
	fs.Float64Var(&a.HotFrac, "hotfrac", 0, "serve: fraction of the table forming the hot region of a skewed query mix (0 = uniform)")
	fs.Float64Var(&a.HotProb, "hotprob", 0, "serve: probability a query's range is drawn from the hot region (0 = uniform)")
	fs.StringVar(&a.JSONOut, "json", "", "serve: also write the sweep rows as JSON to this file (machine-readable benchmark output, wire.ServeStats schema)")
	fs.StringVar(&a.raw.policies, "policies", "", "serve: comma-separated admission policies (fifo, sesf, wfq; default fifo); -compare uses the first")
	fs.IntVar(&a.Tenants, "tenants", 0, "serve/compare: number of tenants streams are mapped onto (default 4)")
	fs.StringVar(&a.raw.weights, "weights", "", "serve/compare: comma-separated per-tenant wfq weights, index = tenant id (default all 1)")
	fs.IntVar(&a.QueueDepth, "queue", 0, "serve/compare: admission queue depth (0 = default 64, negative = unbounded)")
	fs.DurationVar(&a.SLO, "slo", 0, "serve/compare: end-to-end latency SLO (default 250ms)")
	fs.StringVar(&a.raw.sels, "selectivities", "", "serve: comma-separated predicate selectivities in (0,1] (default 1 = unrestricted scans); below 1 every query carries an l_shipdate window of that fraction of the date domain, pruned by the zone maps")
	fs.BoolVar(&a.Clustered, "clustered", false, "serve: generate lineitem sorted by l_shipdate so the zone maps have physical structure to prune against")
	fs.DurationVar(&a.Deadline, "deadline", 0, "serve: per-query end-to-end deadline; queued queries past it are dropped (to%), executing ones killed at the next lifecycle check (0 = no deadlines)")
	fs.Float64Var(&a.CancelRate, "cancel", 0, "serve: fraction of queries whose client cancels them mid-flight, 0..1 (can%); each cancel lands a uniform [0,SLO) delay after issue")
	fs.Float64Var(&a.WriteFrac, "writefrac", 0, "serve: fraction of queries that are updates (insert/delete/modify through the PDT write path), 0..1; 0 keeps the read-only stream")
	fs.IntVar(&a.CheckpointOps, "ckptops", 0, "serve: committed update operations that trigger a background checkpoint/merge (0 = never); reads keep serving pinned snapshot views while the merge runs")
}

// Parse materializes and validates the typed axes from the raw flag
// values. Errors name the flag and offending element in the historical
// style (the caller prefixes the program name).
func (a *ServeAxes) Parse() error {
	var err error
	if a.Rates, err = parseAxisElems(a.raw.rates, "rates", parseFloat); err != nil {
		return err
	}
	if a.MPLs, err = parseAxisElems(a.raw.mpls, "mpls", strconv.Atoi); err != nil {
		return err
	}
	if a.Devices, err = parseAxisElems(a.raw.devices, "devices", strconv.Atoi); err != nil {
		return err
	}
	if a.TenantWeights, err = parseAxisElems(a.raw.weights, "weights", parseFloat); err != nil {
		return err
	}
	if a.Selectivities, err = parseAxisElems(a.raw.sels, "selectivities", parseFloat); err != nil {
		return err
	}
	for _, s := range a.Selectivities {
		if s > 1 {
			return fmt.Errorf("-selectivities: bad element %g: must be in (0,1]", s)
		}
	}
	if a.IOSchedulers, err = parseNameElems(a.raw.iosched, "iosched", "fifo", "elevator"); err != nil {
		return err
	}
	if a.Tiers, err = parseNameElems(a.raw.tiers, "tiers", "flat", "tiered-rr", "tiered-temp"); err != nil {
		return err
	}
	if a.AdmissionPolicies, err = parsePolicyElems(a.raw.policies); err != nil {
		return err
	}
	if a.CancelRate < 0 || a.CancelRate > 1 {
		return fmt.Errorf("-cancel: bad value %g: must be in [0,1]", a.CancelRate)
	}
	if a.WriteFrac < 0 || a.WriteFrac > 1 {
		return fmt.Errorf("-writefrac: bad value %g: must be in [0,1]", a.WriteFrac)
	}
	if a.CheckpointOps < 0 {
		return fmt.Errorf("-ckptops: bad value %d: must be positive (0 = never)", a.CheckpointOps)
	}
	if a.Deadline < 0 {
		return fmt.Errorf("-deadline: bad value %v: must be positive (0 = disabled)", a.Deadline)
	}
	if a.Tenants < 0 {
		return fmt.Errorf("-tenants: bad value %d: must be positive (0 = default)", a.Tenants)
	}
	if a.StripeChunk < 0 {
		return fmt.Errorf("-stripe: bad value %d: must be positive (0 = default)", a.StripeChunk)
	}
	if a.HotFrac < 0 || a.HotFrac > 1 {
		return fmt.Errorf("-hotfrac: bad value %g: must be in [0,1]", a.HotFrac)
	}
	if a.HotProb < 0 || a.HotProb > 1 {
		return fmt.Errorf("-hotprob: bad value %g: must be in [0,1]", a.HotProb)
	}
	return nil
}

// ServeOnly returns the names of set flags legal only with -serve, in
// registration order — -compare rejects them.
func (a *ServeAxes) ServeOnly() []string {
	return a.setWhere(func(f axisFlag) bool { return f.scope == scopeServe })
}

// ServeOrCompareOnly returns the names of set flags legal only with
// -serve or -compare — the figure targets reject them. (This includes
// flags like -queue/-slo that the old hand-maintained list silently
// ignored in figure mode.)
func (a *ServeAxes) ServeOrCompareOnly() []string {
	out := a.setWhere(func(f axisFlag) bool { return f.scope == scopeServeCompare })
	return append(out, a.ServeOnly()...)
}

// ClientSide returns the names of set flags that shape the offered
// traffic only — a server (scanserved) rejects them.
func (a *ServeAxes) ClientSide() []string {
	return a.setWhere(func(f axisFlag) bool { return f.side == sideClient })
}

// ServerSide returns the names of set flags that shape the serving
// engine only — a load generator (scanload) rejects them.
func (a *ServeAxes) ServerSide() []string {
	return a.setWhere(func(f axisFlag) bool { return f.side == sideServer })
}

func (a *ServeAxes) setWhere(match func(axisFlag) bool) []string {
	var out []string
	for _, f := range a.flagTable() {
		if match(f) && f.set() {
			out = append(out, f.name)
		}
	}
	return out
}

// parseAxisElems parses the comma-separated value of axis flag -name
// into positive values; empty input yields nil. Every axis flag reports
// mistakes the same way instead of hand-rolling its own validation.
func parseAxisElems[T int | float64](s, name string, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	var out []T
	for _, f := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("-%s: bad element %q: not a number", name, f)
		}
		if v <= 0 {
			return nil, fmt.Errorf("-%s: bad element %q: must be positive", name, f)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseNameElems parses an enumerated axis, validating every element
// against the menu so a typo fails with the valid set listed.
func parseNameElems(s, name string, valid ...string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	known := map[string]bool{}
	for _, v := range valid {
		known[v] = true
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		v := strings.TrimSpace(f)
		if !known[v] {
			return nil, fmt.Errorf("-%s: bad element %q (valid: %s)", name, v, strings.Join(valid, ", "))
		}
		out = append(out, v)
	}
	return out, nil
}

// parsePolicyElems validates the -policies axis against the registered
// admission policies.
func parsePolicyElems(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	valid := sched.PolicyNames()
	known := map[string]bool{}
	for _, name := range valid {
		known[name] = true
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		name := strings.TrimSpace(f)
		if !known[name] {
			return nil, fmt.Errorf("-policies: unknown admission policy %q (registered: %s)", name, strings.Join(valid, ", "))
		}
		out = append(out, name)
	}
	return out, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
