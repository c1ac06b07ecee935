package minmax

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

// snapWith builds a one-column snapshot from vals.
func snapWith(t testing.TB, vals []int64) *storage.Snapshot {
	t.Helper()
	cat := storage.NewCatalog()
	tb, err := cat.CreateTable("t", storage.Schema{{Name: "v", Type: storage.Int64, Width: 8}})
	if err != nil {
		t.Fatal(err)
	}
	d := storage.NewColumnData()
	d.I64[0] = vals
	s, err := tb.Master().Append(d)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sortedVals(n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	return vals
}

func TestPruneSortedColumn(t *testing.T) {
	snap := snapWith(t, sortedVals(20000))
	ix := Build(snap, 0, 1000)
	if ix.Blocks() != 20 {
		t.Fatalf("blocks = %d", ix.Blocks())
	}
	// Values 5000..5999 live exactly in block 5.
	got := ix.PruneRange(0, 20000, 5000, 5999)
	if len(got) != 1 || got[0].Lo != 5000 || got[0].Hi != 6000 {
		t.Fatalf("pruned = %+v", got)
	}
	// A range matching nothing prunes everything.
	if got := ix.PruneRange(0, 20000, 100000, 200000); got != nil {
		t.Fatalf("expected full prune, got %+v", got)
	}
	// A full-domain restriction keeps one coalesced range.
	got = ix.PruneRange(0, 20000, 0, 1<<40)
	if len(got) != 1 || got[0].Lo != 0 || got[0].Hi != 20000 {
		t.Fatalf("coalesce failed: %+v", got)
	}
}

func TestPruneClipsToRequestedRange(t *testing.T) {
	snap := snapWith(t, sortedVals(10000))
	ix := Build(snap, 0, 1000)
	got := ix.PruneRange(2500, 7500, 0, 1<<40)
	if len(got) != 1 || got[0].Lo != 2500 || got[0].Hi != 7500 {
		t.Fatalf("clip failed: %+v", got)
	}
}

// Property: pruning never loses a qualifying tuple — every position whose
// value falls in [vmin,vmax] is inside some returned range.
func TestPropertyPruneIsSound(t *testing.T) {
	f := func(seed int64, loRaw, hiRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]int64, 5000)
		for i := range vals {
			vals[i] = int64(rng.Intn(1000))
		}
		snap := snapWith(t, vals)
		ix := Build(snap, 0, 512)
		vmin, vmax := int64(loRaw%1000), int64(hiRaw%1000)
		if vmin > vmax {
			vmin, vmax = vmax, vmin
		}
		ranges := ix.PruneRange(0, int64(len(vals)), vmin, vmax)
		inRanges := func(pos int64) bool {
			for _, r := range ranges {
				if pos >= r.Lo && pos < r.Hi {
					return true
				}
			}
			return false
		}
		for i, v := range vals {
			if v >= vmin && v <= vmax && !inRanges(int64(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: returned ranges are sorted, disjoint and within bounds.
func TestPropertyPruneWellFormed(t *testing.T) {
	snap := snapWith(t, sortedVals(8000))
	ix := Build(snap, 0, 600)
	f := func(a, b uint16, v1, v2 uint16) bool {
		lo, hi := int64(a)%8000, int64(b)%8000
		if lo > hi {
			lo, hi = hi, lo
		}
		vmin, vmax := int64(v1)%8000, int64(v2)%8000
		if vmin > vmax {
			vmin, vmax = vmax, vmin
		}
		prev := int64(-1)
		for _, r := range ix.PruneRange(lo, hi, vmin, vmax) {
			if r.Lo >= r.Hi || r.Lo < lo || r.Hi > hi || r.Lo <= prev {
				return false
			}
			prev = r.Hi
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
