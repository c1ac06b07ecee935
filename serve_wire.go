package scanshare

import (
	"repro/internal/sched"
	"repro/internal/workload"
)

// Bridges between the library surface and the command-line binaries:
// the axis declaration they share, the long-lived engine and workload
// generator behind the socket path, and the options the parsed axes
// materialize into.

// ServeAxes declares the full serving axis surface of the scanbench
// command line once: RegisterFlags binds the flags, Parse validates,
// and the scope helpers say which set flags a mode must reject — one
// declaration instead of per-mode rejection lists.
type ServeAxes = workload.ServeAxes

// ServingEngine is the long-lived serving surface behind cmd/scanserved:
// the sweep's per-run wiring held open so a network front end can
// admit, plan and execute queries for the life of a process.
type ServingEngine = workload.ServeEngine

// NewServingEngine builds a serving engine over the generated database,
// on the real-threaded runtime (the config's Real flag is forced on: a
// server serves wall-clock traffic).
func NewServingEngine(db *TPCHDB, cfg ServeConfig) *ServingEngine {
	cfg.Real = true
	return workload.NewServeEngine(db, cfg)
}

// ParsePolicy parses a buffer-management policy name ("lru", "mru",
// "clock", "pbm", "pbm-lru", "cscans"), case-insensitively.
func ParsePolicy(name string) (Policy, bool) { return workload.ParsePolicy(name) }

// BufferPolicies lists the buffer-management policies in menu order.
func BufferPolicies() []Policy { return workload.Policies() }

// Percentile reports the nearest-rank p-quantile of a duration sample,
// the same estimator the scheduler's latency report uses.
var Percentile = sched.Percentile

// NewServeEngineConfig materializes one serving configuration — a
// single cell rather than a sweep — from the base options and the
// parsed axes; multi-valued axes contribute their first element, unset
// ones keep DefaultServeConfig's value. cmd/scanserved uses it so the
// server's knobs are exactly scanbench's, and cmd/scanload so its
// generator's are. A tiered first element maps to "tiered-rr" placement
// ("tiered-temp" needs a profiling pass a live server does not have).
func NewServeEngineConfig(base Options, a ServeAxes) ServeConfig {
	o := ServeOptions{Options: base.fill(), ServeAxes: a}
	return o.config(o.point())
}
