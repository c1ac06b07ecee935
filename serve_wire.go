package scanshare

import (
	"encoding/json"
	"flag"
	"os"

	"repro/internal/sched"
	"repro/internal/workload"
)

// Bridges between the library surface and the command-line binaries:
// the flag and axis declarations they share and the configuration the
// parsed axes materialize into.

// ServeAxes declares the full serving axis surface of the scanbench
// command line once: RegisterFlags binds the flags, Parse validates,
// the scope helpers say which set flags a mode must reject, and the
// sweep and the single-configuration consumers land its values on a
// ServeConfig — one declaration per axis instead of per-layer copies.
type ServeAxes = workload.ServeAxes

// ParsePolicy parses a buffer-management policy name ("lru", "mru",
// "clock", "pbm", "pbm/lru" or "pbm-lru", "cscans"), case-insensitively;
// the error lists the menu.
func ParsePolicy(name string) (Policy, error) { return workload.ParsePolicy(name) }

// Percentile reports the nearest-rank p-quantile of a duration sample,
// the same estimator the scheduler's latency report uses.
var Percentile = sched.Percentile

// WriteServeRows writes rows to path as a JSON array in the wire schema
// (ServeRow is wire.ServeStats): the -json output of scanbench and
// scanload, the machine-readable counterpart of the -tsv table and the
// shape of scanserved's /statz row. CI archives it as a benchmark
// artifact.
func WriteServeRows(path string, rows []ServeRow) error {
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// NewServeEngineConfig materializes one serving configuration — a
// single cell rather than a sweep — from the base options with a as
// their axes (base.ServeAxes is not read): with a rate set, the cell
// Compare runs. Multi-valued axes contribute their first element, unset
// ones keep DefaultServeConfig's value. cmd/scanserved uses it so the
// server's knobs are exactly scanbench's, and cmd/scanload so its
// generator's are. It panics on a value a single configuration cannot
// take (see ServeAxes.Check) — "tiered-temp" needs the sweep's profiling
// pass.
func NewServeEngineConfig(base Options, a ServeAxes) ServeConfig {
	base.ServeAxes = a
	return base.fill().cells(false)[0]
}

// RegisterFlags binds the per-run flags the command-line binaries share
// onto fs, each with the value o holds as its default, and every serving
// axis and knob, unset (ServeAxes.RegisterFlags): a binary keeps one
// Options value and calls its Parse after fs.Parse. server and client
// say which ends of the socket the binary holds — scanbench both,
// scanserved and scanload one — and so which per-run flags it takes: the
// rest shape the other end. Where a one-ended binary words a flag its
// own way, the row says how. Every axis is bound in each binary; the
// side helpers (ClientSide, ServerSide) name the set ones it rejects.
func (o *Options) RegisterFlags(fs *flag.FlagSet, server, client bool) {
	o.ServeAxes.RegisterFlags(fs)
	for _, f := range []struct {
		name                string
		server, client      bool
		bind                func(name, usage string)
		usage, served, load string
	}{
		{"sf", true, false, func(n, u string) { fs.Float64Var(&o.SF, n, o.SF, u) }, "TPC-H scale factor of the generated data", "", ""},
		{"seed", true, true, func(n, u string) { fs.Int64Var(&o.Seed, n, o.Seed, u) }, "workload and generator seed", "generator seed", "per-stream rng seed base (matches scanbench)"},
		{"streams", false, true, func(n, u string) { fs.IntVar(&o.Streams, n, o.Streams, u) }, "override concurrent streams", "", "concurrent client streams"},
		{"queries", false, true, func(n, u string) { fs.IntVar(&o.QueriesPerStream, n, o.QueriesPerStream, u) }, "override queries per stream", "", "queries per stream"},
		{"threads", true, false, func(n, u string) { fs.IntVar(&o.ThreadsPerQuery, n, o.ThreadsPerQuery, u) }, "override threads per query", "", ""},
		{"cores", true, false, func(n, u string) { fs.IntVar(&o.Cores, n, o.Cores, u) }, "override simulated cores", "", ""},
		{"cpu", true, false, func(n, u string) { fs.DurationVar(&o.PerTupleCPU, n, o.PerTupleCPU, u) }, "override per-tuple CPU cost", "", ""},
	} {
		usage := f.usage
		if !client && f.served != "" {
			usage = f.served
		}
		if !server && f.load != "" {
			usage = f.load
		}
		if server && f.server || client && f.client {
			f.bind(f.name, usage)
		}
	}
}
