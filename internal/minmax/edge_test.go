package minmax

import (
	"math/rand"
	"testing"
)

// TestPruneEmptyIndex pins the degenerate shapes around an index with no
// summarized tuples: every query answers "nothing", never panics.
func TestPruneEmptyIndex(t *testing.T) {
	snap := snapWith(t, nil)
	ix := Build(snap, 0, 1000)
	if ix.Blocks() != 0 {
		t.Fatalf("blocks = %d, want 0", ix.Blocks())
	}
	if _, _, ok := ix.ValueBounds(); ok {
		t.Fatal("ValueBounds ok on empty index")
	}
	if got := ix.PruneRange(0, 100, 0, 1<<40); got != nil {
		t.Fatalf("empty index pruned to %+v, want nil", got)
	}
	if n := ix.CountRange(0, 100, 0, 1<<40); n != 0 {
		t.Fatalf("CountRange = %d, want 0", n)
	}
}

// TestPruneInvertedValueInterval is the regression for the bug this
// change fixed: an inverted value interval (vmin > vmax) matches no
// tuple, but the per-block test (mins[b] > vmax || maxs[b] < vmin) can
// be false for both arms — block [0,10] "survives" vmin=8, vmax=2 — so
// without the early return PruneRange kept every block instead of none.
func TestPruneInvertedValueInterval(t *testing.T) {
	snap := snapWith(t, sortedVals(4000))
	ix := Build(snap, 0, 1000)
	if got := ix.PruneRange(0, 4000, 800, 200); got != nil {
		t.Fatalf("inverted interval survived as %+v, want nil", got)
	}
	if n := ix.CountRange(0, 4000, 800, 200); n != 0 {
		t.Fatalf("CountRange on inverted interval = %d, want 0", n)
	}
}

// TestPruneInvertedTupleRange: a backwards or empty tuple range prunes
// everything regardless of the predicate.
func TestPruneInvertedTupleRange(t *testing.T) {
	snap := snapWith(t, sortedVals(4000))
	ix := Build(snap, 0, 1000)
	for _, r := range [][2]int64{{500, 100}, {100, 100}, {4000, 4000}, {5000, 9000}} {
		if got := ix.PruneRange(r[0], r[1], 0, 1<<40); got != nil {
			t.Fatalf("range [%d,%d) survived as %+v, want nil", r[0], r[1], got)
		}
	}
}

// TestPruneStraddlingBlockEdges: a value window that spans a block
// boundary must keep both touching blocks (coalesced), and a window
// matching only a boundary value must keep exactly the owning block.
func TestPruneStraddlingBlockEdges(t *testing.T) {
	snap := snapWith(t, sortedVals(4000))
	ix := Build(snap, 0, 1000)
	// Values 999 and 1000 sit on either side of the block-0/1 edge.
	got := ix.PruneRange(0, 4000, 999, 1000)
	if len(got) != 1 || got[0].Lo != 0 || got[0].Hi != 2000 {
		t.Fatalf("straddling window kept %+v, want one coalesced [0,2000)", got)
	}
	// Value 1000 is block 1's minimum: block 0 must drop.
	got = ix.PruneRange(0, 4000, 1000, 1000)
	if len(got) != 1 || got[0].Lo != 1000 || got[0].Hi != 2000 {
		t.Fatalf("boundary value kept %+v, want [1000,2000)", got)
	}
	// Clipping interacts with the straddle: a tuple range starting inside
	// the surviving run clips the run, not the whole block grid.
	got = ix.PruneRange(1500, 4000, 999, 1000)
	if len(got) != 1 || got[0].Lo != 1500 || got[0].Hi != 2000 {
		t.Fatalf("clipped straddle kept %+v, want [1500,2000)", got)
	}
}

// TestPruneOutOfBoundsTupleRange: tuple ranges poking outside the table
// clip to it instead of indexing past the summary arrays.
func TestPruneOutOfBoundsTupleRange(t *testing.T) {
	snap := snapWith(t, sortedVals(2500)) // ragged last block
	ix := Build(snap, 0, 1000)
	got := ix.PruneRange(-100, 99999, 0, 1<<40)
	if len(got) != 1 || got[0].Lo != 0 || got[0].Hi != 2500 {
		t.Fatalf("out-of-bounds range kept %+v, want [0,2500)", got)
	}
}

// FuzzPruneRange fuzzes the pruning invariants on a noisy clustered
// column: soundness (no qualifying tuple is ever pruned), well-formed
// output (sorted, disjoint, non-empty, inside the clipped input range),
// and CountRange consistency with the materialized ranges.
func FuzzPruneRange(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	vals := make([]int64, 6000)
	for i := range vals {
		vals[i] = int64(i/32)*4 + rng.Int63n(9)
	}
	snap := snapWith(f, vals)
	ix := Build(snap, 0, 700) // does not divide 6000: ragged last block
	f.Add(int64(0), int64(6000), int64(0), int64(1000))
	f.Add(int64(-50), int64(9000), int64(100), int64(200))
	f.Add(int64(500), int64(100), int64(0), int64(1000)) // inverted tuple range
	f.Add(int64(0), int64(6000), int64(300), int64(100)) // inverted value interval
	f.Add(int64(699), int64(701), int64(0), int64(0))    // block edge
	f.Fuzz(func(t *testing.T, lo, hi, vmin, vmax int64) {
		ranges := ix.PruneRange(lo, hi, vmin, vmax)
		clo, chi := lo, hi
		if clo < 0 {
			clo = 0
		}
		if chi > int64(len(vals)) {
			chi = int64(len(vals))
		}
		prev := int64(-1)
		var kept int64
		for _, r := range ranges {
			if r.Lo >= r.Hi || r.Lo < clo || r.Hi > chi || r.Lo <= prev {
				t.Fatalf("malformed output %+v for [%d,%d) x [%d,%d]", ranges, lo, hi, vmin, vmax)
			}
			prev = r.Hi
			kept += r.Hi - r.Lo
		}
		if n := ix.CountRange(lo, hi, vmin, vmax); n != kept {
			t.Fatalf("CountRange = %d, materialized ranges hold %d", n, kept)
		}
		inRanges := func(pos int64) bool {
			for _, r := range ranges {
				if pos >= r.Lo && pos < r.Hi {
					return true
				}
			}
			return false
		}
		for pos := clo; pos < chi; pos++ {
			if v := vals[pos]; v >= vmin && v <= vmax && !inRanges(pos) {
				t.Fatalf("qualifying tuple %d (value %d) pruned by [%d,%d) x [%d,%d]",
					pos, v, lo, hi, vmin, vmax)
			}
		}
	})
}
