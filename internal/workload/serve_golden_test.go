package workload

import (
	"fmt"
	"strings"
	"testing"
)

// serveFingerprint renders every scheduler counter of a spread of
// sim-mode serving runs with full precision: the three main buffer
// policies at the default serving point, an overloaded bounded-queue
// configuration that exercises rejections, and a wide-MPL unbounded
// queue. The file it is compared against was generated BEFORE the
// admission-policy refactor (pluggable fifo/sesf/wfq), so a passing test
// proves the fifo policy is bit-identical to the historical hard-coded
// FIFO admission queue: any change to the admission order or virtual-time
// trajectory shifts a latency percentile or counter and shows up as a
// diff.
func serveFingerprint() string {
	var b strings.Builder
	run := func(name string, cfg ServeConfig) {
		res := RunServe(tinyDB, cfg)
		fmt.Fprintf(&b, "serve/%s sched=%s io=%d\n", name, schedStr(res.Sched), res.TotalIOBytes)
	}
	for _, pol := range []Policy{LRU, PBM, CScan} {
		cfg := tinyServeConfig()
		cfg.Policy = pol
		run("policy="+pol.String(), cfg)
	}
	busy := tinyServeConfig()
	busy.Policy = PBM
	busy.ArrivalRate = 500
	busy.MPL = 2
	run("queued", busy)
	hot := tinyServeConfig()
	hot.Policy = PBM
	hot.ArrivalRate = 2000
	hot.MPL = 2
	hot.QueueDepth = 4
	run("overload", hot)
	wide := tinyServeConfig()
	wide.Policy = LRU
	wide.MPL = 16
	wide.QueueDepth = -1
	run("wide", wide)
	return b.String()
}

// TestServeFIFOGoldenUnchanged is the FIFO-equivalence regression of the
// pluggable-admission-policy refactor: serving output under the default
// (fifo) policy must be bit-identical to the recorded pre-refactor
// output. Regenerate with `go test -run ServeFIFOGolden -update` ONLY for
// an intentional semantic change to admission or the simulation.
func TestServeFIFOGoldenUnchanged(t *testing.T) {
	checkGolden(t, "serve_fifo_golden.txt", serveFingerprint())
}
