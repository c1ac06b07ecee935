package abm

import (
	"math/rand"
	"testing"

	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// The scheduler's choices as they were before QueryRelevance and
// LoadRelevance shared one pass and UseRelevance read chunk.relevance():
// three helper passes to pick a scan, a fourth to pick its chunk, and a
// use score of its own. They are the oracle chooseLoad and useChunk are
// held to, choice for choice.

// refChooseQuery implements QueryRelevance: prefer starved queries, then
// shorter ones (fewest chunks remaining), skipping cancelled owners.
func refChooseQuery(a *ABM) *CScan {
	var best *CScan
	bestStarved := false
	bestRemaining := 0
	for _, tm := range a.tabOrder {
		for _, cs := range tm.scans {
			if cs.qctx.Cancelled() {
				continue
			}
			if !refHasLoadableChunk(a, cs) {
				continue
			}
			starved := refIsStarved(a, cs)
			if best == nil ||
				(starved && !bestStarved) ||
				(starved == bestStarved && cs.remaining < bestRemaining) {
				best, bestStarved, bestRemaining = cs, starved, cs.remaining
			}
		}
	}
	return best
}

// refIsStarved reports whether the scan has no cached chunk ready to
// consume.
func refIsStarved(a *ABM, cs *CScan) bool {
	if cs.remaining == 0 {
		return false
	}
	for i, needed := range cs.need {
		if needed && a.chunkCachedFor(cs, cs.tm.chunks[i]) {
			return false
		}
	}
	return true
}

// refHasLoadableChunk reports whether any chunk of interest is neither
// cached nor loading.
func refHasLoadableChunk(a *ABM, cs *CScan) bool {
	for i, needed := range cs.need {
		if !needed {
			continue
		}
		c := cs.tm.chunks[i]
		if !c.loading && !a.chunkCachedFor(cs, c) {
			return true
		}
	}
	return false
}

// refChooseChunk implements LoadRelevance for the chosen query (nil when
// none was chosen): the chunk most concurrent scans are interested in,
// shared chunks boosted.
func refChooseChunk(a *ABM, cs *CScan) *chunk {
	if cs == nil {
		return nil
	}
	var best *chunk
	bestRel := 0.0
	for i, needed := range cs.need {
		if !needed {
			continue
		}
		c := cs.tm.chunks[i]
		if c.loading || a.chunkCachedFor(cs, c) {
			continue
		}
		rel := c.relevance()
		if best == nil || rel > bestRel {
			best, bestRel = c, rel
		}
	}
	return best
}

// refUseChunk is GetChunk's UseRelevance pick: among cached chunks of
// interest, the one fewest other scans want.
func refUseChunk(cs *CScan) *chunk {
	var pick *chunk
	bestRel := 0.0
	for i, needed := range cs.need {
		if !needed {
			continue
		}
		c := cs.tm.chunks[i]
		if !cs.abm.chunkCachedFor(cs, c) {
			continue
		}
		rel := -float64(c.interest - 1)
		if c.shared {
			rel -= sharedBonus
		}
		if pick == nil || rel > bestRel {
			pick, bestRel = c, rel
		}
	}
	return pick
}

func chunkIdx(c *chunk) int {
	if c == nil {
		return -1
	}
	return c.idx
}

// TestDifferentialRelevance runs seeded scripts of registrations,
// residency, loading flags, consumption, shared marking and
// unregistrations against one table, and after every step holds
// chooseLoad to refChooseChunk(refChooseQuery) and every scan's useChunk
// to refUseChunk. The scheduler process never runs between steps, so the
// script alone decides the state both sides read.
func TestDifferentialRelevance(t *testing.T) {
	_, snap := fixture(t, 40960) // 10 chunks of 4096
	n := snap.NumTuples()
	pages := [][]*storage.Page{snap.PagesInRange(0, 0, n), snap.PagesInRange(1, 0, n)}
	colSets := [][]int{{0}, {1}, {0, 1}}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		a := newABM(eng, 1<<30)
		eng.Go("script", func() {
			defer a.Stop()
			var live []*CScan
			for step := 0; step < 60; step++ {
				var what string
				switch k := rng.Intn(6); {
				case k == 0 || len(live) == 0:
					what = "register"
					lo := rng.Int63n(n)
					hi := lo + 1 + rng.Int63n(n-lo)
					cs := a.RegisterCScan(snap, colSets[rng.Intn(len(colSets))], []SIDRange{{lo, hi}}, false)
					if rng.Intn(5) == 0 {
						q := rt.NewQueryCtx(rt.Sim(eng))
						q.Cancel(rt.CauseClientCancel)
						cs.Bind(q)
					}
					live = append(live, cs)
				case k == 1:
					what = "resident"
					col := pages[rng.Intn(len(pages))]
					pg := col[rng.Intn(len(col))]
					a.resident[pg.ID] = &residentPage{page: pg}
				case k == 2:
					what = "loading"
					c := a.tabOrder[0].chunks[rng.Intn(len(a.tabOrder[0].chunks))]
					c.loading = !c.loading
				case k == 3:
					what = "consume"
					cs := live[rng.Intn(len(live))]
					var needed []int
					for i, nd := range cs.need {
						if nd {
							needed = append(needed, i)
						}
					}
					if len(needed) > 0 {
						i := needed[rng.Intn(len(needed))]
						cs.need[i] = false
						cs.remaining--
						cs.tm.chunks[i].interest--
					}
				case k == 4:
					what = "shared"
					for _, c := range a.tabOrder[0].chunks {
						c.shared = rng.Intn(2) == 0
					}
				default:
					what = "unregister"
					i := rng.Intn(len(live))
					live[i].Unregister()
					live = append(live[:i], live[i+1:]...)
				}
				if got, want := a.chooseLoad(), refChooseChunk(a, refChooseQuery(a)); got != want {
					t.Errorf("seed %d step %d (%s): chooseLoad chunk %d, reference chunk %d",
						seed, step, what, chunkIdx(got), chunkIdx(want))
					return
				}
				for j, cs := range live {
					if got, want := cs.useChunk(), refUseChunk(cs); got != want {
						t.Errorf("seed %d step %d (%s): scan %d useChunk chunk %d, reference chunk %d",
							seed, step, what, j, chunkIdx(got), chunkIdx(want))
						return
					}
				}
			}
		})
		eng.Run()
	}
}
