package workload

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/tpch"
)

// htapFingerprint renders a spread of sim-mode runs with NO update
// stream configured, covering every path the HTAP refactor touches:
// the three main buffer policies through the serving stack (admission,
// plan building, the scan operators' range pruning), a clustered
// selectivity-mix serve run where the zone maps really skip (range
// pruning moves from a bool gate to delta-aware segment walking), a
// weighted wfq run (write admission shares these policies), and a
// deadline+cancel run (the update stream's rng draws must come after
// the lifecycle draws without perturbing them). The file it is
// compared against was generated BEFORE pdt.Store views were threaded
// through the engine, so a passing test proves the write-rate-0 path
// is bit-identical to the read-only engine.
func htapFingerprint() string {
	var b strings.Builder
	run := func(name string, db *tpch.DB, cfg ServeConfig) {
		res := RunServe(db, cfg)
		fmt.Fprintf(&b, "htap/%s sched=%s io=%d skip=%d/%d\n",
			name, schedStr(res.Sched), res.TotalIOBytes,
			res.SkippedTuples, res.RequestedTuples)
	}
	for _, pol := range []Policy{LRU, PBM, CScan} {
		cfg := tinyServeConfig()
		cfg.Policy = pol
		run("policy="+pol.String(), tinyDB, cfg)
	}
	for _, pol := range []Policy{PBM, CScan} {
		cfg := tinyServeConfig()
		cfg.Policy = pol
		cfg.Selectivities = []float64{0.05, 0.5, 1}
		run("skip/"+pol.String(), clusteredTinyDB, cfg)
	}
	wfq := tinyServeConfig()
	wfq.Policy = PBM
	wfq.AdmissionPolicy = "wfq"
	wfq.ArrivalRate = 500
	wfq.Tenants = 4
	wfq.TenantWeights = []float64{4, 2, 1, 1}
	run("wfq", tinyDB, wfq)
	life := tinyServeConfig()
	life.Policy = CScan
	life.Deadline = tinyServeConfig().SLO
	life.CancelRate = 0.2
	run("lifecycle", tinyDB, life)
	return b.String()
}

// TestHTAPGoldenWriteRateZeroUnchanged is the no-behavior-change
// regression of the HTAP/versioned-snapshot refactor: with no update
// stream configured, every serving run must be bit-identical to the
// recorded pre-refactor output — no extra rng draws, no extra events,
// no changed pruning decisions. Regenerate with
// `go test -run HTAPGolden -update` ONLY for an intentional semantic
// change to the simulation.
func TestHTAPGoldenWriteRateZeroUnchanged(t *testing.T) {
	checkGolden(t, "htap_golden.txt", htapFingerprint())
}
