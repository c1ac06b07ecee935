package workload

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/pdt"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// freshClusteredTinyDB generates a private database per call: HTAP runs
// checkpoint the table (new master, new pages), so write tests must not
// share the package-level read-only fixtures.
func freshClusteredTinyDB() *tpch.DB {
	return tpch.GenerateOpt(0.004, 11, tpch.GenOptions{ClusteredShipdate: true})
}

// htapServeConfig is tinyServeConfig with a 30% write fraction and a
// checkpoint trigger low enough that several merges complete mid-run.
func htapServeConfig(policy Policy) ServeConfig {
	cfg := tinyServeConfig()
	cfg.Policy = policy
	cfg.WriteFrac = 0.3
	cfg.CheckpointOps = 8
	cfg.Selectivities = []float64{0.1, 1}
	return cfg
}

// TestServeWithUpdates drives the full HTAP serving stack: a mixed
// read/write stream through the admission scheduler, snapshot-pinned
// scans, and online checkpoint/merge cycles. The admission ledger must
// reconcile with writes included (the run's closing Check asserts it),
// write throughput must be reported separately, at least one checkpoint
// must complete mid-run, and reads overlapping a merge window must yield
// a measured p95.
func TestServeWithUpdates(t *testing.T) {
	for _, policy := range []Policy{PBM, CScan} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			res := RunServe(freshClusteredTinyDB(), htapServeConfig(policy))
			st := res.Sched
			if st.WriteCompleted == 0 {
				t.Fatal("no writes completed at 30% write fraction")
			}
			if st.WriteThroughput <= 0 {
				t.Fatalf("write throughput = %v", st.WriteThroughput)
			}
			if st.Completed <= st.WriteCompleted {
				t.Fatalf("no reads completed: %d completions, %d writes", st.Completed, st.WriteCompleted)
			}
			if res.Checkpoints == 0 {
				t.Fatal("no checkpoint completed mid-run")
			}
			if res.MergeP95 <= 0 {
				t.Fatalf("merge-window scan p95 = %v with %d checkpoints", res.MergeP95, res.Checkpoints)
			}
			if res.SkippedTuples == 0 {
				t.Fatal("zone-map skipping went inactive under writes")
			}
		})
	}
}

// TestServeWithUpdatesDeterministic: the sim-mode HTAP run is a pure
// function of its config — two runs agree on every ledger entry, the
// checkpoint count, and the merge-window p95.
func TestServeWithUpdatesDeterministic(t *testing.T) {
	// Fresh database per run: a checkpoint allocates pages and blocks
	// from the catalog's counters, so reruns on one mutated catalog
	// would see shifted disk geometry. A fresh load is the fixed point.
	a := RunServe(freshClusteredTinyDB(), htapServeConfig(CScan))
	b := RunServe(freshClusteredTinyDB(), htapServeConfig(CScan))
	if a.Sched != b.Sched {
		t.Fatalf("sched stats diverged:\n%+v\n%+v", a.Sched, b.Sched)
	}
	if a.Checkpoints != b.Checkpoints || a.MergeP95 != b.MergeP95 {
		t.Fatalf("merge stats diverged: %d/%v vs %d/%v",
			a.Checkpoints, a.MergeP95, b.Checkpoints, b.MergeP95)
	}
	if a.TotalIOBytes != b.TotalIOBytes {
		t.Fatalf("I/O diverged: %d vs %d", a.TotalIOBytes, b.TotalIOBytes)
	}
}

// TestCheckpointSwapAfterMergeCostOnRealRuntime: on the real runtime the
// merge waits out its cost on a paced fork, and the snapshot swap still
// comes no earlier than mergeCost after the merge starts — for a cost
// below a pacing quantum, which only the closing Flush pays, and for one
// above it. The table is 64 tuples, so materializing it takes next to no
// time and the swap's instant is the wait's end.
func TestCheckpointSwapAfterMergeCostOnRealRuntime(t *testing.T) {
	for _, cost := range []sim.Duration{700 * time.Microsecond, 3 * time.Millisecond} {
		tb, err := storage.NewCatalog().CreateTable("t", storage.Schema{{Name: "d", Type: storage.Int64, Width: 8}})
		if err != nil {
			t.Fatal(err)
		}
		d := storage.NewColumnData()
		d.I64[0] = make([]int64, 64)
		snap, err := tb.Master().Append(d)
		if err == nil {
			err = snap.Commit()
		}
		if err != nil {
			t.Fatal(err)
		}
		h := &htapState{
			store:      pdt.NewStoreAt(snap),
			schema:     tb.Schema,
			baseTuples: snap.NumTuples(),
			ckptOps:    1,
			mergeCost:  cost,
		}
		if _, err := h.apply(UpdateOp{Kind: UpdateModify, Frac: 0.5, Date: 1, Batch: 1}, 0); err != nil {
			t.Fatal(err)
		}
		r := rt.NewReal()
		var swapped rt.Time
		h.store.SetCheckpointHook(func(_, _ *storage.Snapshot) { swapped = r.Now() })
		wg := r.NewWaitGroup()
		h.maybeCheckpoint(r, wg)
		wg.Wait()
		if h.checkpoints != 1 {
			t.Fatalf("cost %v: %d checkpoints, want 1", cost, h.checkpoints)
		}
		if start := h.windows[0].start; swapped-start < sim.Time(cost) {
			t.Fatalf("cost %v: snapshot swapped %v after the merge started", cost, sim.Duration(swapped-start))
		}
	}
}

// TestPricingReadsLiveZoneMap: admission prices a predicate read by the
// zone map of the store's current stable snapshot. Rows 0-63 of a
// clustered table (its earliest shipdates) are moved to DateMax and
// checkpointed, so for a [DateMax, DateMax] window the live map keeps
// [0, 2048) — one zone block — and prunes [2048, 4096), where the map of
// the loaded snapshot keeps neither, and no map keeps both. With the
// current snapshot's map dropped, as a checkpoint does between the two
// reads, a range is priced unpruned.
func TestPricingReadsLiveZoneMap(t *testing.T) {
	db := freshClusteredTinyDB()
	cfg := tinyServeConfig()
	cfg.AdmissionPolicy = "sesf"
	en := NewServeEngine(db, cfg)
	defer en.Close()
	n := en.htap.store.NumTuples()
	for i := 0; i < 64; i++ {
		op := UpdateOp{Kind: UpdateModify, Frac: (float64(i) + 0.5) / float64(n), Date: tpch.DateMax, Batch: 1}
		if _, err := en.htap.apply(op, en.dom.ShipCol); err != nil {
			t.Fatal(err)
		}
	}
	en.htap.store.PropagateWriteToRead()
	if _, err := en.htap.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pred := &exec.ScanPredicate{Col: en.dom.ShipCol, Lo: tpch.DateMax, Hi: tpch.DateMax}
	for _, hi := range []int64{2048, 4096} {
		if got := en.survivingTuples(exec.RIDRange{Lo: 0, Hi: hi}, pred); got != 2048 {
			t.Fatalf("priced %d tuples of [0, %d), want the 2048 the live zone map keeps", got, hi)
		}
	}
	en.Ctx.Zones.Drop(en.htap.store.Stable())
	if got := en.survivingTuples(exec.RIDRange{Lo: 0, Hi: 4096}, pred); got != 4096 {
		t.Fatalf("priced %d tuples of [0, 4096) with the zone map retired, want 4096 (unpruned)", got)
	}
}

// TestPricingRaceWithCheckpoints prices predicate reads on the real
// runtime while checkpoints retire the snapshots whose zone maps the
// pricing looks up: every price lies within its range, and under -race
// the registry and store reads are checked against the checkpoints'
// writes. A lookup that misses (a checkpoint landing between the two
// reads) is a rare interleaving here; TestPricingReadsLiveZoneMap forces
// one.
func TestPricingRaceWithCheckpoints(t *testing.T) {
	cfg := tinyServeConfig()
	cfg.Real = true
	cfg.AdmissionPolicy = "sesf"
	en := NewServeEngine(freshClusteredTinyDB(), cfg)
	defer en.Close()
	r := exec.RIDRange{Lo: 0, Hi: en.NumTuples()}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < 40; i++ {
			op := UpdateOp{Kind: UpdateModify, Frac: float64(i) / 40, Date: tpch.DateMax, Batch: 4}
			if _, err := en.htap.apply(op, en.dom.ShipCol); err != nil {
				t.Error(err)
				return
			}
			en.htap.store.PropagateWriteToRead()
			if _, err := en.htap.store.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; !done.Load(); i++ {
		lo := int64(i*97) % en.dom.DateMax
		pred := &exec.ScanPredicate{Col: en.dom.ShipCol, Lo: lo, Hi: lo + 30}
		if got := en.survivingTuples(r, pred); got < 0 || got > r.Hi-r.Lo {
			t.Fatalf("priced %d tuples of a %d-tuple range", got, r.Hi-r.Lo)
		}
		if q := en.Request(0, i, 0, Draw{Kind: "q6", Range: r, Pred: pred}, nil); q.Cost <= 0 {
			t.Fatalf("request priced %v", q.Cost)
		}
	}
	wg.Wait()
}
