package abm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
)

// allPairsSharedLimit is remarkShared as first written, kept as the
// marking's reference: every pair of registered scans, identical snapshots
// included, compared page by page over every column. It returns how many
// leading chunks are shared.
func allPairsSharedLimit(tm *tableMeta) int {
	var best int64
	for i := 0; i < len(tm.scans); i++ {
		for j := i + 1; j < len(tm.scans); j++ {
			s, o := tm.scans[i].snap, tm.scans[j].snap
			bound := min(s.NumTuples(), o.NumTuples())
			for c := range s.Table().Schema {
				sp, op := s.Pages(c), o.Pages(c)
				k := 0
				for k < len(sp) && k < len(op) && sp[k] == op[k] {
					k++
				}
				var covered int64
				if k > 0 {
					covered = sp[k-1].LastSID()
				}
				bound = min(bound, covered)
			}
			best = max(best, bound)
		}
	}
	return int(best / tm.abm.cfg.ChunkTuples)
}

func checkMarking(t *testing.T, a *ABM, step string) {
	t.Helper()
	for _, tm := range a.tabOrder {
		want := allPairsSharedLimit(tm)
		for i, c := range tm.chunks {
			if c.shared != (i < want) {
				t.Fatalf("%s: version %d chunk %d shared=%v with %d scans registered; all-pairs reference marks the first %d of %d chunks",
					step, tm.key.version, i, c.shared, len(tm.scans), want, len(tm.chunks))
			}
		}
	}
}

func appendRows(t *testing.T, s *storage.Snapshot, n int) *storage.Snapshot {
	t.Helper()
	d := storage.NewColumnData()
	d.I64[0] = make([]int64, n)
	d.I64[1] = make([]int64, n)
	ns, err := s.Append(d)
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

// TestSharedMarkingMatchesAllPairsReference registers and unregisters
// scans in random order over the snapshots §2.1 distinguishes — many scans
// of one snapshot pointer, forks of one master that share its prefix, a
// fork of a fork, and a checkpointed version — and after every step
// requires chunk.shared to be what comparing all pairs of scans gives.
func TestSharedMarkingMatchesAllPairsReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			_, master := fixture(t, 16384+rng.Intn(3)*1000) // 4 chunks and a partial one
			forkA := appendRows(t, master, 3)
			forkB := appendRows(t, master, 9000) // two more chunks
			forkAA := appendRows(t, forkA, 5000)
			snaps := []*storage.Snapshot{master, master, master, forkA, forkB, forkAA}

			eng := sim.NewEngine()
			a := newABM(eng, 1<<30)
			eng.Go("ops", func() {
				defer a.Stop()
				var live []*CScan
				for step := 0; step < 200; step++ {
					if step == 120 {
						// A checkpoint: later registrations pick from the
						// new version too, while old-version scans drain.
						d := storage.NewColumnData()
						d.I64[0] = make([]int64, 20000)
						d.I64[1] = make([]int64, 20000)
						v2, err := master.Table().Checkpoint(d)
						if err != nil {
							t.Fatal(err)
						}
						snaps = append(snaps, v2, v2, appendRows(t, v2, 4096))
					}
					if len(live) > 0 && (len(live) >= 12 || rng.Intn(5) < 2) {
						i := rng.Intn(len(live))
						live[i].Unregister()
						live = append(live[:i], live[i+1:]...)
						checkMarking(t, a, fmt.Sprintf("step %d (unregister)", step))
						continue
					}
					s := snaps[rng.Intn(len(snaps))]
					hi := 1 + rng.Int63n(s.NumTuples())
					live = append(live, a.RegisterCScan(s, []int{rng.Intn(2)}, []SIDRange{{0, hi}}, false))
					checkMarking(t, a, fmt.Sprintf("step %d (register snapshot %d)", step, s.ID()))
				}
				for _, cs := range live {
					cs.Unregister()
					checkMarking(t, a, "drain")
				}
			})
			eng.Run()
		})
	}
}

// TestSharedMarkingOneSnapshot is the read-only run's case in isolation:
// one scan shares nothing, a second scan of the same snapshot pointer
// shares every whole chunk, and the marking goes when either leaves.
func TestSharedMarkingOneSnapshot(t *testing.T) {
	_, snap := fixture(t, 16384+100) // 4 whole chunks and a partial one
	eng := sim.NewEngine()
	a := newABM(eng, 1<<30)
	eng.Go("ops", func() {
		defer a.Stop()
		all := []SIDRange{{0, snap.NumTuples()}}
		first := a.RegisterCScan(snap, []int{0}, all, false)
		if got := a.SharedChunkCount(snap); got != 0 {
			t.Errorf("one scan: %d shared chunks, want 0", got)
		}
		second := a.RegisterCScan(snap, []int{1}, all, false)
		if got := a.SharedChunkCount(snap); got != 4 {
			t.Errorf("two scans of one snapshot: %d shared chunks, want the 4 whole ones", got)
		}
		first.Unregister()
		if got := a.SharedChunkCount(snap); got != 0 {
			t.Errorf("after one left: %d shared chunks, want 0", got)
		}
		second.Unregister()
	})
	eng.Run()
}
