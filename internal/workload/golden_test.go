package workload

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the sim-mode golden output files")

// checkGolden compares got against testdata/<name>, byte for byte; with
// -update it rewrites the file instead. Every golden was recorded BEFORE
// the refactor its test names, so regenerate ONLY for an intentional
// semantic change to the simulation.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output diverged from %s\n--- want\n%s--- got\n%s", path, want, got)
	}
}

// goldenFingerprint renders every counter of a set of sim-mode runs with
// full precision. The file it is compared against was generated BEFORE
// the Runtime seam was introduced, so a passing test proves the sim
// runtime is bit-identical to the historical engine-everywhere code: any
// change to the virtual-time trajectory — an extra yield, a reordered
// wake-up, a float rounding change — shifts at least one latency
// percentile or I/O counter and shows up as a diff.
func goldenFingerprint() string {
	var b strings.Builder
	micro := func(name string, cfg Config) {
		res := RunMicro(tinyDB, cfg)
		fmt.Fprintf(&b, "micro/%s avg=%.9f max=%.9f io=%d accessed=%d buffer=%d\n",
			name, res.AvgStreamSec, res.MaxStreamSec, res.TotalIOBytes, res.AccessedBytes, res.BufferBytes)
		fmt.Fprintf(&b, "micro/%s pool=%+v abm=%+v\n", name, res.PoolStats, res.ABMStats)
	}
	for _, pol := range []Policy{LRU, PBM, CScan} {
		cfg := tinyMicroConfig()
		cfg.Policy = pol
		micro(pol.String(), cfg)
	}
	shardCfg := tinyMicroConfig()
	shardCfg.Policy = PBM
	shardCfg.PoolShards = 4
	micro("PBM-4shards", shardCfg)

	for _, pol := range []Policy{LRU, PBM, CScan} {
		cfg := tinyServeConfig()
		cfg.Policy = pol
		res := RunServe(tinyDB, cfg)
		// schedStr renders the historical Stats fields byte-identically to
		// the %+v this file was recorded with, so the golden stays valid
		// as Stats grows lifecycle fields.
		fmt.Fprintf(&b, "serve/%s sched=%s\n", pol.String(), schedStr(res.Sched))
		fmt.Fprintf(&b, "serve/%s io=%d pool=%+v abm=%+v\n",
			pol.String(), res.TotalIOBytes, res.PoolStats, res.ABMStats)
	}
	return b.String()
}

// TestSimGoldenUnchanged is the determinism regression of the Runtime
// refactor: sim-mode output must be bit-identical to the recorded
// pre-refactor output. Regenerate with `go test -run Golden -update`
// ONLY for an intentional semantic change to the simulation.
func TestSimGoldenUnchanged(t *testing.T) {
	checkGolden(t, "sim_golden.txt", goldenFingerprint())
}
