package scanshare

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden output files")

// checkGolden compares got against testdata/<name>, byte for byte; with
// -update it rewrites the file instead. Regenerate ONLY for an
// intentional semantic change to the simulation.
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

// sweepGoldenFingerprint renders every numeric result of a tiny serving
// sweep and a tiny figure sweep with full precision. The file it is
// compared against was generated BEFORE the multi-device DeviceArray
// refactor of the I/O layer, so a passing test proves that the default
// single-device configuration (Devices=1) is bit-identical to the
// historical one-global-FIFO-disk model: any change to request admission
// order, seek accounting, or the virtual-time trajectory shifts a latency
// percentile, a stream time, or an I/O counter and shows up as a diff.
//
// Fields are rendered explicitly (not %+v) so that adding NEW columns to
// ServeRow (e.g. the devices axis) does not invalidate the recorded
// pre-refactor values of the old columns.
func sweepGoldenFingerprint() string {
	var b strings.Builder

	so := ServeOptions{
		Options: Options{SF: 0.01, Seed: 42, Streams: 8, QueriesPerStream: 2},
		ServeAxes: ServeAxes{
			Rates:             []float64{50},
			MPLs:              []int{2},
			Shards:            []int{1, 2},
			AdmissionPolicies: []string{"fifo", "wfq"},
			Tenants:           2,
			TenantWeights:     []float64{2, 1},
		},
		Policies: []Policy{LRU, PBM, CScan},
	}
	for _, r := range ServeSweep(so) {
		fmt.Fprintf(&b, "serve rate=%g mpl=%d pol=%s shards=%d adm=%s done=%d rej=%d thru=%.9f p50=%.9f p95=%.9f p99=%.9f qwait=%.9f slo=%.9f io=%.9f",
			r.Rate, r.MPL, r.Policy, r.Shards, r.Admission, r.Completed, r.Rejected,
			r.Throughput, r.P50ms, r.P95ms, r.P99ms, r.QWaitP95ms, r.SLOPct, r.IOMB)
		for i := range r.TenantP95ms {
			fmt.Fprintf(&b, " t%d=%.9f/%.9f", i, r.TenantP95ms[i], r.TenantSLOPct[i])
		}
		fmt.Fprintln(&b)
	}

	fo := Options{SF: 0.01, Seed: 42, QueriesPerStream: 2}
	for _, r := range Fig13(fo) {
		fmt.Fprintf(&b, "fig13 x=%g pol=%s avg=%.9f io=%.9f\n", r.X, r.Policy, r.AvgStreamSec, r.IOMB)
	}
	return b.String()
}

// TestSweepGoldenUnchanged is the single-device equivalence regression of
// the DeviceArray refactor: serve-sweep and figure-sweep results at the
// default device configuration must be bit-identical to output recorded
// before the multi-spindle disk model existed. Regenerate with
// `go test -run SweepGolden -update` ONLY for an intentional semantic
// change to the simulation.
func TestSweepGoldenUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep golden runs full tiny sweeps; skipped in -short")
	}
	checkGolden(t, "sweep_golden.txt", sweepGoldenFingerprint())
}
