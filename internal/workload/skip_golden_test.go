package workload

import (
	"fmt"
	"strings"
	"testing"
)

// skipFingerprint renders the counters of a spread of sim-mode runs with
// NO scan predicates, covering the paths the data-skipping refactor
// touches: both scan operators (Scan through the pool, CScan through the
// ABM), a non-default chunk granularity (zone-map blocks align to
// chunks), a striped multi-device pool (read-ahead batch splitting), and
// the serving driver whose admission costing became skip-aware. The file
// it is compared against was generated BEFORE zone-map pruning was wired
// into the scans, so a passing test proves the skip-disabled path is
// bit-identical to the pre-refactor engine.
func skipFingerprint() string {
	var b strings.Builder
	micro := func(name string, cfg Config) {
		res := RunMicro(tinyDB, cfg)
		fmt.Fprintf(&b, "micro/%s avg=%.9f max=%.9f io=%d\n",
			name, res.AvgStreamSec, res.MaxStreamSec, res.TotalIOBytes)
	}
	for _, pol := range []Policy{LRU, PBM, CScan} {
		cfg := tinyMicroConfig()
		cfg.Policy = pol
		micro("policy="+pol.String(), cfg)
	}
	coarse := tinyMicroConfig()
	coarse.Policy = CScan
	coarse.ChunkTuples = 4096
	micro("chunk=4096", coarse)
	striped := tinyMicroConfig()
	striped.Policy = PBM
	striped.Devices = 4
	striped.StripeChunk = 8
	micro("devices=4", striped)
	for _, pol := range []Policy{PBM, CScan} {
		cfg := tinyServeConfig()
		cfg.Policy = pol
		cfg.AdmissionPolicy = "sesf" // admission pricing is the skip-aware site
		res := RunServe(tinyDB, cfg)
		fmt.Fprintf(&b, "serve/%s sched=%s io=%d\n", pol.String(), schedStr(res.Sched), res.TotalIOBytes)
	}
	return b.String()
}

// TestSkipDisabledBitIdentical is the no-behavior-change regression of
// the data-skipping refactor: with no predicate registered (selectivity
// 1.0), every run must be bit-identical to the recorded pre-refactor
// output. Together with the sim/serve-fifo/sweep goldens this pins all
// four golden surfaces. Regenerate with `go test -run SkipDisabled
// -update` ONLY for an intentional semantic change to the simulation.
func TestSkipDisabledBitIdentical(t *testing.T) {
	checkGolden(t, "skip_golden.txt", skipFingerprint())
}

// TestSelectivityOneBitIdentical pins the other disabled spelling: a
// single-entry selectivity mix of 1.0 consumes no rng draws, registers
// no predicate and builds no zone map, so runs are bit-identical to runs
// with no selectivity axis at all.
func TestSelectivityOneBitIdentical(t *testing.T) {
	for _, pol := range []Policy{PBM, CScan} {
		base := tinyMicroConfig()
		base.Policy = pol
		a := RunMicro(tinyDB, base)
		one := base
		one.Selectivities = []float64{1}
		b := RunMicro(tinyDB, one)
		if a.AvgStreamSec != b.AvgStreamSec || a.TotalIOBytes != b.TotalIOBytes {
			t.Errorf("%v: selectivity {1} diverged: %v/%d vs %v/%d",
				pol, a.AvgStreamSec, a.TotalIOBytes, b.AvgStreamSec, b.TotalIOBytes)
		}
		if b.RequestedTuples != 0 || b.SkippedTuples != 0 {
			t.Errorf("%v: skip counters active on disabled run: %+v", pol, b)
		}
	}
	base := tinyServeConfig()
	base.Policy = PBM
	base.AdmissionPolicy = "sesf"
	a := RunServe(tinyDB, base)
	one := base
	one.Selectivities = []float64{1}
	b := RunServe(tinyDB, one)
	if a.Sched != b.Sched || a.TotalIOBytes != b.TotalIOBytes {
		t.Errorf("serve: selectivity {1} diverged: %+v vs %+v", a.Sched, b.Sched)
	}
}
