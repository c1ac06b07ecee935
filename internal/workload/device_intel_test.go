package workload

import (
	"reflect"
	"testing"

	"repro/internal/tpch"
)

// smallDB is a step up from tinyDB for the block-heat test: tinyDB's
// columns span too few 16 KB pages for block heat to have a visible
// shape.
var smallDB = tpch.Generate(0.02, 11)

// The elevator discipline must stay bit-reproducible on the simulator
// and must actually reduce seeks against FIFO service at an I/O-bound
// serving point with many interleaved scans.
func TestServeElevatorDeterministicAndFewerSeeks(t *testing.T) {
	run := func(sched string) *ServeResult {
		cfg := ioBoundServeConfig()
		cfg.Devices = 4
		cfg.IOScheduler = sched
		return RunServe(tinyDB, cfg)
	}
	a, b := run("elevator"), run("elevator")
	if a.Sched != b.Sched || a.TotalIOBytes != b.TotalIOBytes || a.ElapsedSec != b.ElapsedSec {
		t.Fatalf("elevator nondeterministic:\n%+v io=%d t=%v\n%+v io=%d t=%v",
			a.Sched, a.TotalIOBytes, a.ElapsedSec, b.Sched, b.TotalIOBytes, b.ElapsedSec)
	}
	if !reflect.DeepEqual(a.DiskStats, b.DiskStats) {
		t.Fatalf("elevator nondeterministic disk stats:\n%+v\n%+v", a.DiskStats, b.DiskStats)
	}
	fifo := run("fifo")
	if a.Sched.Completed != fifo.Sched.Completed {
		t.Fatalf("completions diverged: elevator %d, fifo %d", a.Sched.Completed, fifo.Sched.Completed)
	}
	if a.DiskStats.Seeks >= fifo.DiskStats.Seeks {
		t.Fatalf("elevator seeks %d not below fifo seeks %d", a.DiskStats.Seeks, fifo.DiskStats.Seeks)
	}
}

// The heat count must see the configured access skew. Block ids
// interleave all columns, so "the first tenth of the table" is not a
// prefix of block space; instead the skewed mix must concentrate heat:
// its chunk-heat Herfindahl index (sum of squared heat shares) has to be
// well above the uniform mix's.
func TestChunkHeatSeesAccessSkew(t *testing.T) {
	run := func(hotFrac, hotProb float64) []float64 {
		cfg := tinyMicroConfig()
		cfg.Policy = PBM
		cfg.RangePercents = []int{1, 10}
		cfg.StripeChunk = 4
		cfg.collectHeat = true
		cfg.HotFrac = hotFrac
		cfg.HotProb = hotProb
		res := RunMicro(smallDB, cfg)
		if len(res.heat) == 0 {
			t.Fatal("no heat collected")
		}
		return res.heat
	}
	hhi := func(heat []float64) float64 {
		var total, sq float64
		for _, h := range heat {
			total += h
		}
		if total == 0 {
			t.Fatal("zero total heat")
		}
		for _, h := range heat {
			s := h / total
			sq += s * s
		}
		return sq
	}
	uniform, skewed := run(0, 0), run(0.1, 0.9)
	if uh, sh := hhi(uniform), hhi(skewed); sh <= 1.5*uh {
		t.Fatalf("skewed mix heat concentration %.4f not well above uniform %.4f", sh, uh)
	}
}

// TestTieredTempBeatsRoundRobin is the tiering acceptance point: on a
// skew-heavy serving mix over a 2-fast/2-slow array, placing the hottest
// chunks on the fast tier (from RunServe's profiling pass) must finish
// the same workload sooner than round-robin striping — under every
// policy, since the scans count the heat whatever buffer manager serves
// them.
func TestTieredTempBeatsRoundRobin(t *testing.T) {
	for _, pol := range []Policy{LRU, Clock, PBM, CScan} {
		t.Run(pol.String(), func(t *testing.T) {
			run := func(tier string) *ServeResult {
				cfg := ioBoundServeConfig()
				cfg.Policy = pol
				cfg.Devices = 4
				cfg.Tier = tier
				cfg.HotFrac = 0.1
				cfg.HotProb = 0.9
				return RunServe(tinyDB, cfg)
			}
			rr, temp := run("tiered-rr"), run("tiered-temp")
			if temp.Sched.Completed != rr.Sched.Completed {
				t.Fatalf("completions diverged: temp %d, rr %d", temp.Sched.Completed, rr.Sched.Completed)
			}
			t.Logf("makespan rr %.2f ms, temp %.2f ms", rr.ElapsedSec*1e3, temp.ElapsedSec*1e3)
			if temp.ElapsedSec >= rr.ElapsedSec {
				t.Fatalf("temperature placement makespan %.4fs not below round-robin %.4fs",
					temp.ElapsedSec, rr.ElapsedSec)
			}
		})
	}
}
