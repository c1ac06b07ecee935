package workload

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/sched"
	"repro/wire"
)

// ServeAxes holds the value of every serving axis and knob; flagTable
// declares each of them once. RegisterFlags binds the scanbench-style
// flags, Parse validates and materializes the typed values, the scope
// and side helpers answer "which of the set flags are illegal in this
// mode or this binary", and Cells turns the values into the
// configurations to run. The serving sweep's options embed it, so the
// field list is not repeated.
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
	// Policies is the buffer-management axis (sweep default LRU, Clock,
	// PBM, CScan). It has no flag: scanbench sweeps the default four and
	// scanserved names its one policy with -policy.
	Policies []Policy
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
	// Tiers is the heterogeneous-array axis, Config.Tier's values
	// (default {"flat"}, every spindle identical).
	Tiers []string
	// HotFrac and HotProb skew the query mix's range starts: with
	// probability HotProb a query's scan range is drawn inside the first
	// HotFrac of the table (the access skew temperature placement
	// exploits). Zero keeps the historical uniform draws.
	HotFrac float64
	HotProb float64
	// AdmissionPolicies names the admission policy (default {"fifo"}; the
	// menu is sched.PolicyNames).
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

	// raw holds the comma-separated text of each multi-valued flag, by
	// flag name, between the flag package's parse and Parse.
	raw map[string]*string
}

// rawText returns the text slot of the named multi-valued flag.
func (a *ServeAxes) rawText(name string) *string {
	if a.raw == nil {
		a.raw = map[string]*string{}
	}
	if a.raw[name] == nil {
		a.raw[name] = new(string)
	}
	return a.raw[name]
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

// axisFlag is the one declaration of a serving axis or knob: its flag
// name, where the flag is legal, which end of the socket it configures,
// its binding to a ServeAxes field — sweep default, menu or range check,
// how a value lands in a cell's configuration, how the effective
// configuration labels a row — and its usage string. Flag registration,
// Parse, the scope and side helpers, the sweep's cross product, the
// single point of -compare and the socket binaries, and ServeRowOf's
// labels are all loops over flagTable in its order, so an axis cannot be
// in one of them and not the others.
type axisFlag struct {
	name  string
	scope axisScope
	side  axisSide
	axisBinding
	usage string
}

// axisBinding ties a table row to the field it fills.
type axisBinding struct {
	// register binds the flag (nil: the axis has no flag) and set says
	// whether the command line set it — by value: an explicit `=false`
	// or `=0` counts as unset.
	register func(fs *flag.FlagSet, name, usage string)
	set      func(name string) bool
	// parse materializes the typed field from the flag's text (nil: the
	// flag package already did).
	parse func(name string) error
	// edits holds the values a consumer takes to the row's check and
	// returns one cell edit per value: for a sweep every element (the
	// sweep default when there is none), for a single point the first,
	// and none — the serving defaults stand — when the field is unset.
	edits func(name string) ([]func(*ServeConfig), error)
	// label writes the axis's column of a row from the effective
	// configuration (nil: a knob has no column).
	label func(*wire.ServeStats, *ServeConfig)
}

// flagTable is the axis table as a sweep or as a single-configuration
// consumer reads it; its order is the sweep's nesting order, outermost
// first.
func (a *ServeAxes) flagTable(sweep bool) []axisFlag {
	t := axisSource{a, sweep}
	type (
		row = wire.ServeStats
		cfg = ServeConfig
	)
	// The flag package's binders of the knob types.
	intVar, floatVar, durationVar := (*flag.FlagSet).IntVar, (*flag.FlagSet).Float64Var, (*flag.FlagSet).DurationVar
	boolVar, stringVar := (*flag.FlagSet).BoolVar, (*flag.FlagSet).StringVar
	return []axisFlag{
		{"rates", scopeServeCompare, sideClient, axis(t, &a.Rates, []float64{1, 5, 20}, parseFloat, positive[float64], func(c *cfg, v float64) { c.ArrivalRate = v }, func(r *row, c *cfg) { r.Rate = c.ArrivalRate }), "serve: comma-separated per-stream arrival rates in queries/s (default 1,5,20); -compare uses the first"},
		{"mpls", scopeServeCompare, sideServer, axis(t, &a.MPLs, []int{8, 32}, strconv.Atoi, positive[int], func(c *cfg, v int) { c.MPL = v }, func(r *row, c *cfg) { r.MPL = c.MPL }), "serve: comma-separated MPL concurrency limits (default 8,32); -compare uses the first"},
		{"", scopeServeCompare, sideServer, axis(t, &a.Policies, []Policy{LRU, Clock, PBM, CScan}, nil, nil, func(c *cfg, v Policy) { c.Policy = v }, func(r *row, c *cfg) { r.Policy = c.Policy.String() }), ""},
		{"devices", scopeFigure, sideServer, axis(t, &a.Devices, []int{1}, strconv.Atoi, positive[int], func(c *cfg, v int) { c.Devices = v }, func(r *row, c *cfg) { r.Devices = c.Devices }), "disk-array spindle counts: a comma-separated axis for -serve (default 1); the first value overrides the figure experiments' and -compare's single device"},
		{"stripe", scopeFigure, sideServer, knob(&a.StripeChunk, intVar, notNegative[int]("default"), func(c *cfg, v int) { c.StripeChunk = v }), "disk-array stripe chunk in blocks (0 = default 16); meaningful with -devices > 1"},
		{"iosched", scopeServe, sideServer, axis(t, &a.IOSchedulers, []string{"fifo"}, word, oneOf(notOnMenu, "fifo", "elevator"), func(c *cfg, v string) { c.IOScheduler = v }, func(r *row, c *cfg) { r.IOSched = c.IOScheduler }), "serve: comma-separated device queue disciplines (fifo, elevator; default fifo); elevator services each spindle's queue as a C-SCAN sweep"},
		{"tiers", scopeServe, sideServer, axis(t, &a.Tiers, []string{"flat"}, word, tierMenu(sweep), func(c *cfg, v string) { c.Tier = v }, func(r *row, c *cfg) { r.Tier = c.Tier }), "serve: comma-separated array tierings (flat, tiered-rr, tiered-temp; default flat); tiered cells make the first half of the devices an SSD-like fast tier, tiered-temp places the hottest chunks there from a profiling pass"},
		{"hotfrac", scopeServe, sideClient, knob(&a.HotFrac, floatVar, fraction, func(c *cfg, v float64) { c.HotFrac = v }), "serve: fraction of the table forming the hot region of a skewed query mix (0 = uniform)"},
		{"hotprob", scopeServe, sideClient, knob(&a.HotProb, floatVar, fraction, func(c *cfg, v float64) { c.HotProb = v }), "serve: probability a query's range is drawn from the hot region (0 = uniform)"},
		{"json", scopeServe, sideClient, knob(&a.JSONOut, stringVar, nil, nil), "serve: also write the sweep rows as JSON to this file (machine-readable benchmark output, wire.ServeStats schema)"},
		{"policies", scopeServeCompare, sideServer, axis(t, &a.AdmissionPolicies, []string{"fifo"}, word, oneOf(unknownPolicy, sched.PolicyNames()...), func(c *cfg, v string) { c.AdmissionPolicy = v }, func(r *row, c *cfg) { r.Admission = c.AdmissionPolicy }), "serve: comma-separated admission policies (fifo, sesf, wfq; default fifo); -compare uses the first"},
		{"tenants", scopeServeCompare, sideServer, knob(&a.Tenants, intVar, notNegative[int]("default"), func(c *cfg, v int) { c.Tenants = v }), "serve/compare: number of tenants streams are mapped onto (default 4)"},
		{"weights", scopeServeCompare, sideServer, vector(t, &a.TenantWeights, parseFloat, positive[float64], func(c *cfg, v []float64) { c.TenantWeights = v }), "serve/compare: comma-separated per-tenant wfq weights, index = tenant id (default all 1)"},
		{"queue", scopeServeCompare, sideServer, knob(&a.QueueDepth, intVar, nil, func(c *cfg, v int) { c.QueueDepth = v }), "serve/compare: admission queue depth (0 = default 64, negative = unbounded)"},
		// The server measures SLO attainment against -slo; the load
		// generator draws its cancel delays inside it.
		{"slo", scopeServeCompare, sideBoth, knob(&a.SLO, durationVar, nil, func(c *cfg, v time.Duration) { c.SLO = v }), "serve/compare: end-to-end latency SLO (default 250ms)"},
		{"selectivities", scopeServe, sideClient, axis(t, &a.Selectivities, []float64{1}, parseFloat, upToOne, func(c *cfg, v float64) { c.Selectivities = []float64{v} }, func(r *row, c *cfg) { r.Selectivity = c.Selectivities[0] }), "serve: comma-separated predicate selectivities in (0,1] (default 1 = unrestricted scans); below 1 every query carries an l_shipdate window of that fraction of the date domain, pruned by the zone maps"},
		{"clustered", scopeServe, sideServer, knob(&a.Clustered, boolVar, nil, nil), "serve: generate lineitem sorted by l_shipdate so the zone maps have physical structure to prune against"},
		{"deadline", scopeServe, sideClient, knob(&a.Deadline, durationVar, notNegative[time.Duration]("disabled"), func(c *cfg, v time.Duration) { c.Deadline = v }), "serve: per-query end-to-end deadline; queued queries past it are dropped (to%), executing ones killed at the next lifecycle check (0 = no deadlines)"},
		{"cancel", scopeServe, sideClient, knob(&a.CancelRate, floatVar, fraction, func(c *cfg, v float64) { c.CancelRate = v }), "serve: fraction of queries whose client cancels them mid-flight, 0..1 (can%); each cancel lands a uniform [0,SLO) delay after issue"},
		{"writefrac", scopeServe, sideClient, knob(&a.WriteFrac, floatVar, fraction, func(c *cfg, v float64) { c.WriteFrac = v }), "serve: fraction of queries that are updates (insert/delete/modify through the PDT write path), 0..1; 0 keeps the read-only stream"},
		{"ckptops", scopeServe, sideServer, knob(&a.CheckpointOps, intVar, notNegative[int]("never"), func(c *cfg, v int) { c.CheckpointOps = v }), "serve: committed update operations that trigger a background checkpoint/merge (0 = never); reads keep serving pinned snapshot views while the merge runs"},
	}
}

// axisSource is what a list-valued binding reads besides its own field:
// the axes, for the flag's text, and which consumer is asking.
type axisSource struct {
	a     *ServeAxes
	sweep bool
}

// knob binds a single-valued flag straight onto its field, through the
// flag package's own binder for the field's type. A knob left at its
// zero value edits nothing, so the serving defaults stand; check, when
// non-nil, is its range check, and land, when non-nil, puts a set value
// into a cell's configuration.
func knob[T comparable](p *T, bind func(fs *flag.FlagSet, p *T, name string, value T, usage string),
	check func(name string, v T) error, land func(*ServeConfig, T)) axisBinding {
	var zero T
	return axisBinding{
		register: func(fs *flag.FlagSet, name, usage string) { bind(fs, p, name, zero, usage) },
		set:      func(string) bool { return *p != zero },
		edits: func(name string) ([]func(*ServeConfig), error) {
			if *p == zero || land == nil {
				return nil, nil
			}
			return landing(name, []T{*p}, check, land)
		},
	}
}

// landing holds vals to check (nil: every value is legal) and returns,
// for each, the cell edit that lands it.
func landing[T any](name string, vals []T, check func(name string, v T) error, land func(*ServeConfig, T)) ([]func(*ServeConfig), error) {
	out := make([]func(*ServeConfig), len(vals))
	for i, v := range vals {
		if check != nil {
			if err := check(name, v); err != nil {
				return nil, err
			}
		}
		v := v
		out[i] = func(c *ServeConfig) { land(c, v) }
	}
	return out, nil
}

// listFlag binds a comma-separated flag: the flag fills the axes' text
// slot and Parse materializes dst from it, one trimmed element at a time
// through parse. Empty input yields nil; a nil parse means no flag.
func listFlag[T any](t axisSource, dst *[]T, parse func(string) (T, error)) axisBinding {
	if parse == nil {
		return axisBinding{}
	}
	return axisBinding{
		register: func(fs *flag.FlagSet, name, usage string) { fs.StringVar(t.a.rawText(name), name, "", usage) },
		set:      func(name string) bool { return *t.a.rawText(name) != "" },
		parse: func(name string) error {
			*dst = nil
			raw := *t.a.rawText(name)
			if raw == "" {
				return nil
			}
			for _, f := range strings.Split(raw, ",") {
				v, err := parse(strings.TrimSpace(f))
				if err != nil {
					return fmt.Errorf("-%s: bad element %q: not a number", name, f)
				}
				*dst = append(*dst, v)
			}
			return nil
		},
	}
}

// axis binds a sweep axis: def is what a sweep runs when the field is
// unset, check the menu or range every taken element must pass (nil:
// all legal), land how one element lands in a cell and label the axis's
// column.
func axis[T any](t axisSource, dst *[]T, def []T, parse func(string) (T, error), check func(name string, v T) error,
	land func(*ServeConfig, T), label func(*wire.ServeStats, *ServeConfig)) axisBinding {
	b := listFlag(t, dst, parse)
	b.label = label
	b.edits = func(name string) ([]func(*ServeConfig), error) {
		vals := *dst
		switch {
		case t.sweep && len(vals) == 0:
			vals = def
		case !t.sweep && len(vals) > 1:
			vals = vals[:1]
		}
		return landing(name, vals, check, land)
	}
	return b
}

// vector binds a list-valued knob: the whole list is one value.
func vector[T any](t axisSource, dst *[]T, parse func(string) (T, error), check func(name string, v T) error, land func(*ServeConfig, []T)) axisBinding {
	b := listFlag(t, dst, parse)
	b.edits = func(name string) ([]func(*ServeConfig), error) {
		for _, v := range *dst {
			if err := check(name, v); err != nil {
				return nil, err
			}
		}
		if len(*dst) == 0 {
			return nil, nil
		}
		return []func(*ServeConfig){func(c *ServeConfig) { land(c, *dst) }}, nil
	}
	return b
}

// RegisterFlags binds every serving flag onto fs with the historical
// names and usage strings. Call Parse after fs.Parse.
func (a *ServeAxes) RegisterFlags(fs *flag.FlagSet) {
	for _, f := range a.flagTable(true) {
		if f.register != nil {
			f.register(fs, f.name, f.usage)
		}
	}
}

// Parse materializes the typed axes from the flags' text and holds them
// to the sweep's menus and ranges. Errors name the flag and offending
// element in the historical style (the caller prefixes the program name).
func (a *ServeAxes) Parse() error {
	for _, f := range a.flagTable(true) {
		if f.parse != nil {
			if err := f.parse(f.name); err != nil {
				return err
			}
		}
	}
	return a.Check(true)
}

// Check holds the values a sweep — or, sweep false, a single
// configuration — would take to the table's menus and ranges: the
// fail-fast validation of a library caller's typed values, and of a
// binary that runs one configuration.
func (a *ServeAxes) Check(sweep bool) error {
	_, err := a.Cells(ServeConfig{}, sweep)
	return err
}

// Cells lands the axes on base: for a sweep the cross product of every
// axis, in table order with the last axis varying fastest, unset axes at
// their sweep defaults; otherwise the one cell a single-configuration
// consumer runs — the first element of each axis and, where an axis is
// unset, base's value (the serving default), not the sweep's. The first
// illegal value is the error.
func (a *ServeAxes) Cells(base ServeConfig, sweep bool) ([]ServeConfig, error) {
	cells := []ServeConfig{base}
	for _, f := range a.flagTable(sweep) {
		edits, err := f.edits(f.name)
		if err != nil {
			return nil, err
		}
		if len(edits) == 0 {
			continue
		}
		next := make([]ServeConfig, 0, len(cells)*len(edits))
		for _, c := range cells {
			for _, edit := range edits {
				n := c
				edit(&n)
				next = append(next, n)
			}
		}
		cells = next
	}
	return cells, nil
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
	for _, f := range a.flagTable(true) {
		if f.register != nil && match(f) && f.set(f.name) {
			out = append(out, f.name)
		}
	}
	return out
}

// fraction rejects a value outside [0,1].
func fraction(name string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("-%s: bad value %g: must be in [0,1]", name, v)
	}
	return nil
}

// notNegative rejects a negative count or duration; zero is the flag's
// "not set", which means what the note says.
func notNegative[T int | time.Duration](zeroMeans string) func(name string, v T) error {
	return func(name string, v T) error {
		if v < 0 {
			return fmt.Errorf("-%s: bad value %v: must be positive (0 = %s)", name, v, zeroMeans)
		}
		return nil
	}
}

// positive is the check of a numeric axis. Every axis reports mistakes
// the same way instead of hand-rolling its own validation.
func positive[T int | float64](name string, v T) error {
	if v <= 0 {
		return fmt.Errorf("-%s: bad element %q: must be positive", name, fmt.Sprint(v))
	}
	return nil
}

// upToOne checks a positive element that is at most 1.
func upToOne(name string, v float64) error {
	if err := positive(name, v); err != nil || v <= 1 {
		return err
	}
	return fmt.Errorf("-%s: bad element %g: must be in (0,1]", name, v)
}

// Complaint formats of the enumerated axes: flag name, offending
// element, menu.
const (
	notOnMenu      = "-%s: bad element %q (valid: %s)"
	notOnPointMenu = "-%s: bad element %q (valid in a single configuration, which has no profiling pass to place tiered-temp from: %s)"
	unknownPolicy  = "-%s: unknown admission policy %q (registered: %s)"
)

// oneOf returns the check of an enumerated axis, so a typo fails with
// the valid set listed.
func oneOf(complaint string, valid ...string) func(name, v string) error {
	return func(name, v string) error {
		if !slices.Contains(valid, v) {
			return fmt.Errorf(complaint, name, v, strings.Join(valid, ", "))
		}
		return nil
	}
}

// tierMenu is the -tiers check. tiered-temp is on the sweep's menu only:
// its chunk placement comes from RunServe's profiling pass, which a live
// server cannot run, so there it would serve tiered-rr; a single
// configuration — the server's, -compare's — takes the server's menu.
func tierMenu(sweep bool) func(name, v string) error {
	if sweep {
		return oneOf(notOnMenu, "flat", "tiered-rr", "tiered-temp")
	}
	return oneOf(notOnPointMenu, "flat", "tiered-rr")
}

// word is the parse of an enumerated axis's element: the name itself.
func word(s string) (string, error) { return s, nil }

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
