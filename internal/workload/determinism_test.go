package workload

import (
	"reflect"
	"testing"
)

// The sim engine guarantees bit-reproducible runs: same seed, same
// config, same binary => identical results, including every latency
// percentile and I/O counter. These regression tests lock the guarantee
// in for each driver by comparing entire result structs across two runs.

func TestRunMicroBitIdentical(t *testing.T) {
	cfg := tinyMicroConfig()
	cfg.Policy = PBM
	cfg.TraceForOPT = true
	a := RunMicro(tinyDB, cfg)
	b := RunMicro(tinyDB, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("RunMicro not bit-identical across runs:\n%+v\n%+v", a, b)
	}
}

func TestRunTPCHBitIdentical(t *testing.T) {
	cfg := DefaultTPCHConfig()
	cfg.Policy = CScan
	cfg.Streams = 2
	cfg.QueriesPerStream = 4
	a := RunTPCH(tinyDB, cfg)
	b := RunTPCH(tinyDB, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("RunTPCH not bit-identical across runs:\n%+v\n%+v", a, b)
	}
}

func TestRunServeBitIdentical(t *testing.T) {
	for _, pol := range []Policy{LRU, PBM, CScan} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := tinyServeConfig()
			cfg.Policy = pol
			a := RunServe(tinyDB, cfg)
			b := RunServe(tinyDB, cfg)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("RunServe not bit-identical across runs:\n%+v\n%+v", a.Sched, b.Sched)
			}
			// The guarantee covers the full latency distribution, not just
			// aggregates: per-query stats must match exactly too.
			if a.Sched.Latency != b.Sched.Latency || a.Sched.QueueWait != b.Sched.QueueWait {
				t.Fatal("latency distributions diverge")
			}
		})
	}
}
