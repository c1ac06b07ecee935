package workload

import (
	"flag"
	"fmt"
	"slices"
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

// axisFlag is the one declaration of a serving flag: its name, where it
// is legal, which end of the socket it configures, its binding to a
// ServeAxes field and its usage string. RegisterFlags, Parse and the scope
// and side helpers are all loops over flagTable, so a flag cannot be in
// one of them and not the others.
type axisFlag struct {
	name  string
	scope axisScope
	side  axisSide
	axisBinding
	usage string
}

// axisBinding ties a flag to the field it fills: how to register it,
// whether the command line set it (by value — an explicit `=false` or
// `=0` counts as unset), and the parse or range check Parse runs on it
// (nil: every value is legal).
type axisBinding struct {
	register func(fs *flag.FlagSet, name, usage string)
	set      func() bool
	check    func(name string) error
}

func (a *ServeAxes) flagTable() []axisFlag {
	return []axisFlag{
		{"rates", scopeServeCompare, sideClient, list(&a.raw.rates, &a.Rates, positive(parseFloat)), "serve: comma-separated per-stream arrival rates in queries/s (default 1,5,20); -compare uses the first"},
		{"mpls", scopeServeCompare, sideServer, list(&a.raw.mpls, &a.MPLs, positive(strconv.Atoi)), "serve: comma-separated MPL concurrency limits (default 8,32); -compare uses the first"},
		{"devices", scopeFigure, sideServer, list(&a.raw.devices, &a.Devices, positive(strconv.Atoi)), "disk-array spindle counts: a comma-separated axis for -serve (default 1); the first value overrides the figure experiments' and -compare's single device"},
		{"stripe", scopeFigure, sideServer, knob(&a.StripeChunk, notNegative[int]("default")), "disk-array stripe chunk in blocks (0 = default 16); meaningful with -devices > 1"},
		{"iosched", scopeServe, sideServer, list(&a.raw.iosched, &a.IOSchedulers, oneOf(notOnMenu, "fifo", "elevator")), "serve: comma-separated device queue disciplines (fifo, elevator; default fifo); elevator services each spindle's queue as a C-SCAN sweep"},
		{"tiers", scopeServe, sideServer, list(&a.raw.tiers, &a.Tiers, oneOf(notOnMenu, "flat", "tiered-rr", "tiered-temp")), "serve: comma-separated array tierings (flat, tiered-rr, tiered-temp; default flat); tiered cells make the first half of the devices an SSD-like fast tier, tiered-temp places the hottest chunks there from a profiling pass"},
		{"hotfrac", scopeServe, sideClient, knob(&a.HotFrac, fraction), "serve: fraction of the table forming the hot region of a skewed query mix (0 = uniform)"},
		{"hotprob", scopeServe, sideClient, knob(&a.HotProb, fraction), "serve: probability a query's range is drawn from the hot region (0 = uniform)"},
		{"json", scopeServe, sideClient, knob(&a.JSONOut, nil), "serve: also write the sweep rows as JSON to this file (machine-readable benchmark output, wire.ServeStats schema)"},
		{"policies", scopeServeCompare, sideServer, list(&a.raw.policies, &a.AdmissionPolicies, oneOf(unknownPolicy, sched.PolicyNames()...)), "serve: comma-separated admission policies (fifo, sesf, wfq; default fifo); -compare uses the first"},
		{"tenants", scopeServeCompare, sideServer, knob(&a.Tenants, notNegative[int]("default")), "serve/compare: number of tenants streams are mapped onto (default 4)"},
		{"weights", scopeServeCompare, sideServer, list(&a.raw.weights, &a.TenantWeights, positive(parseFloat)), "serve/compare: comma-separated per-tenant wfq weights, index = tenant id (default all 1)"},
		{"queue", scopeServeCompare, sideServer, knob(&a.QueueDepth, nil), "serve/compare: admission queue depth (0 = default 64, negative = unbounded)"},
		// The server measures SLO attainment against -slo; the load
		// generator draws its cancel delays inside it.
		{"slo", scopeServeCompare, sideBoth, knob(&a.SLO, nil), "serve/compare: end-to-end latency SLO (default 250ms)"},
		{"selectivities", scopeServe, sideClient, list(&a.raw.sels, &a.Selectivities, upToOne), "serve: comma-separated predicate selectivities in (0,1] (default 1 = unrestricted scans); below 1 every query carries an l_shipdate window of that fraction of the date domain, pruned by the zone maps"},
		{"clustered", scopeServe, sideServer, knob(&a.Clustered, nil), "serve: generate lineitem sorted by l_shipdate so the zone maps have physical structure to prune against"},
		{"deadline", scopeServe, sideClient, knob(&a.Deadline, notNegative[time.Duration]("disabled")), "serve: per-query end-to-end deadline; queued queries past it are dropped (to%), executing ones killed at the next lifecycle check (0 = no deadlines)"},
		{"cancel", scopeServe, sideClient, knob(&a.CancelRate, fraction), "serve: fraction of queries whose client cancels them mid-flight, 0..1 (can%); each cancel lands a uniform [0,SLO) delay after issue"},
		{"writefrac", scopeServe, sideClient, knob(&a.WriteFrac, fraction), "serve: fraction of queries that are updates (insert/delete/modify through the PDT write path), 0..1; 0 keeps the read-only stream"},
		{"ckptops", scopeServe, sideServer, knob(&a.CheckpointOps, notNegative[int]("never")), "serve: committed update operations that trigger a background checkpoint/merge (0 = never); reads keep serving pinned snapshot views while the merge runs"},
	}
}

// knob binds a single-valued flag straight onto its field; check, when
// non-nil, is its range check.
func knob[T bool | int | float64 | string | time.Duration](p *T, check func(name string, v T) error) axisBinding {
	b := axisBinding{
		register: func(fs *flag.FlagSet, name, usage string) {
			switch p := any(p).(type) {
			case *bool:
				fs.BoolVar(p, name, false, usage)
			case *int:
				fs.IntVar(p, name, 0, usage)
			case *float64:
				fs.Float64Var(p, name, 0, usage)
			case *string:
				fs.StringVar(p, name, "", usage)
			case *time.Duration:
				fs.DurationVar(p, name, 0, usage)
			}
		},
		set: func() bool { var zero T; return *p != zero },
	}
	if check != nil {
		b.check = func(name string) error { return check(name, *p) }
	}
	return b
}

// list binds a comma-separated axis: the flag fills raw, and Parse
// materializes dst from it, one element at a time through elem (which
// gets the element as typed, untrimmed, for its complaint). Empty input
// yields nil.
func list[T any](raw *string, dst *[]T, elem func(name, f string) (T, error)) axisBinding {
	return axisBinding{
		register: func(fs *flag.FlagSet, name, usage string) { fs.StringVar(raw, name, "", usage) },
		set:      func() bool { return *raw != "" },
		check: func(name string) error {
			*dst = nil
			if *raw == "" {
				return nil
			}
			var out []T
			for _, f := range strings.Split(*raw, ",") {
				v, err := elem(name, f)
				if err != nil {
					return err
				}
				out = append(out, v)
			}
			*dst = out
			return nil
		},
	}
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

// RegisterFlags binds every serving flag onto fs with the historical
// names and usage strings. Call Parse after fs.Parse.
func (a *ServeAxes) RegisterFlags(fs *flag.FlagSet) {
	for _, f := range a.flagTable() {
		f.register(fs, f.name, f.usage)
	}
}

// Parse materializes and validates the typed axes from the raw flag
// values. Errors name the flag and offending element in the historical
// style (the caller prefixes the program name).
func (a *ServeAxes) Parse() error {
	for _, f := range a.flagTable() {
		if f.check == nil {
			continue
		}
		if err := f.check(f.name); err != nil {
			return err
		}
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

// positive returns the element parser of a numeric axis: the element
// must parse and be positive. Every axis flag reports mistakes the same
// way instead of hand-rolling its own validation.
func positive[T int | float64](parse func(string) (T, error)) func(name, f string) (T, error) {
	return func(name, f string) (T, error) {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			return v, fmt.Errorf("-%s: bad element %q: not a number", name, f)
		}
		if v <= 0 {
			return v, fmt.Errorf("-%s: bad element %q: must be positive", name, f)
		}
		return v, nil
	}
}

// upToOne parses a positive element that is at most 1.
func upToOne(name, f string) (float64, error) {
	v, err := positive(parseFloat)(name, f)
	if err == nil && v > 1 {
		err = fmt.Errorf("-%s: bad element %g: must be in (0,1]", name, v)
	}
	return v, err
}

// Complaint formats of the enumerated axes: flag name, offending
// element, menu.
const (
	notOnMenu     = "-%s: bad element %q (valid: %s)"
	unknownPolicy = "-%s: unknown admission policy %q (registered: %s)"
)

// oneOf returns the element parser of an enumerated axis, validating the
// element against the menu so a typo fails with the valid set listed.
func oneOf(complaint string, valid ...string) func(name, f string) (string, error) {
	return func(name, f string) (string, error) {
		v := strings.TrimSpace(f)
		if !slices.Contains(valid, v) {
			return v, fmt.Errorf(complaint, name, v, strings.Join(valid, ", "))
		}
		return v, nil
	}
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
