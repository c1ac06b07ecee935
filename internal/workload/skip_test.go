package workload

import (
	"testing"
	"time"

	"repro/internal/tpch"
)

// clusteredTinyDB is tinyDB's scale and seed with lineitem physically
// sorted by l_shipdate — the layout that gives zone maps something to
// prune. Same tuples, different order: query answers are unchanged.
var clusteredTinyDB = tpch.GenerateOpt(0.004, 11, tpch.GenOptions{ClusteredShipdate: true})

// TestSelectivityReducesIOOnClusteredData is the sim-mode acceptance
// check of data skipping: on clustered data, a 1%-selective workload
// over full-range scans must touch dramatically fewer device bytes than
// the unrestricted run, because the zone maps exclude most chunks before
// any I/O is scheduled.
func TestSelectivityReducesIOOnClusteredData(t *testing.T) {
	for _, pol := range []Policy{PBM, CScan} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			base := tinyMicroConfig()
			base.Policy = pol
			base.RangePercents = []int{100} // I/O-bound: every query scans the full table
			base.ChunkTuples = 512          // fine chunks: pruning granularity matters at tiny scale
			// Few queries: at tiny scale the UNION of many random 1% windows
			// covers most chunks, flooring the I/O regardless of per-query
			// skipping; the reduction claim is about the workload's windows,
			// not window count.
			base.Streams = 2
			base.QueriesPerStream = 2
			full := RunMicro(clusteredTinyDB, base)
			selCfg := base
			selCfg.Selectivities = []float64{0.01}
			sel := RunMicro(clusteredTinyDB, selCfg)

			if sel.RequestedTuples == 0 || sel.SkippedTuples == 0 {
				t.Fatalf("skipping never engaged: requested=%d skipped=%d",
					sel.RequestedTuples, sel.SkippedTuples)
			}
			skipPct := 100 * float64(sel.SkippedTuples) / float64(sel.RequestedTuples)
			if skipPct < 50 {
				t.Errorf("skip rate %.1f%%, want >= 50%% on clustered data", skipPct)
			}
			if sel.TotalIOBytes*2 > full.TotalIOBytes {
				t.Errorf("selective run read %d bytes, full run %d: want >= 50%% reduction",
					sel.TotalIOBytes, full.TotalIOBytes)
			}
			t.Logf("%v: full I/O %d, 1%%-selective I/O %d (skip %.1f%%)",
				pol, full.TotalIOBytes, sel.TotalIOBytes, skipPct)
		})
	}
}

// TestSelectivityDoesNotChangeAnswers: skipping is a physical
// optimization — with the scan's exact filter applied after pruning, a
// selective run must produce positive, plausible results and identical
// results across repeated runs (the simulator stays deterministic with
// the predicate draws in the stream).
func TestSelectivityDeterministicWithPredicates(t *testing.T) {
	cfg := tinyMicroConfig()
	cfg.Policy = PBM
	cfg.Selectivities = []float64{1, 0.1, 0.01}
	a := RunMicro(clusteredTinyDB, cfg)
	b := RunMicro(clusteredTinyDB, cfg)
	if a.AvgStreamSec != b.AvgStreamSec || a.TotalIOBytes != b.TotalIOBytes ||
		a.RequestedTuples != b.RequestedTuples || a.SkippedTuples != b.SkippedTuples {
		t.Fatalf("selective runs not bit-identical:\n%+v\n%+v", a, b)
	}
	if a.AvgStreamSec <= 0 || a.TotalIOBytes <= 0 {
		t.Fatalf("bad selective result: %+v", a)
	}
}

// TestRunServeRealMixedSelectivitiesSmoke runs the full serving stack on
// the real-threaded runtime with a mixed selectivity axis, under sesf so
// the skip-aware admission pricing path runs concurrently too. Under -race this is the concurrency check
// of the zone-map registry and the atomic skip counters.
func TestRunServeRealMixedSelectivitiesSmoke(t *testing.T) {
	for _, pol := range []Policy{PBM, CScan} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := tinyRealServeConfig()
			cfg.Policy = pol
			cfg.AdmissionPolicy = "sesf"
			cfg.Selectivities = []float64{1, 0.01}
			type outcome struct{ res *ServeResult }
			ch := make(chan outcome, 1)
			go func() { ch <- outcome{RunServe(clusteredTinyDB, cfg)} }()
			var res *ServeResult
			select {
			case o := <-ch:
				res = o.res
			case <-time.After(120 * time.Second):
				t.Fatal("real-mode selective serve run hung")
			}
			want := int64(cfg.Streams * cfg.QueriesPerStream)
			if res.Sched.Arrived != want {
				t.Fatalf("arrived %d, want %d", res.Sched.Arrived, want)
			}
			if res.TotalIOBytes <= 0 {
				t.Fatal("no I/O recorded")
			}
			if res.RequestedTuples == 0 || res.SkippedTuples == 0 {
				t.Fatalf("skipping never engaged under real runtime: requested=%d skipped=%d",
					res.RequestedTuples, res.SkippedTuples)
			}
		})
	}
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
