package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/pdt"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// coveredBy reports whether rid falls inside one of the ranges.
func coveredBy(ranges []RIDRange, rid int64) bool {
	for _, r := range ranges {
		if rid >= r.Lo && rid < r.Hi {
			return true
		}
	}
	return false
}

// TestPruneDeltaWidenedSoundAndActive: pruning over uncheckpointed
// deltas must keep every RID whose merged value matches the predicate
// (soundness) while still discarding provably-excluded stable blocks
// (the pre-refactor behavior was a full-scan fallback).
func TestPruneDeltaWidenedSoundAndActive(t *testing.T) {
	const n = 1000
	e := newEnv(t, n, false)
	e.ctx.Zones = NewZoneMaps()
	e.ctx.Zones.Build(e.snap, 0, 100)
	e.ctx.Skip = &SkipStats{}
	pred := &ScanPredicate{Col: 0, Lo: 200, Hi: 299}

	p := pdt.New(e.snap.Table().Schema, n)
	// A mod far outside the predicate's blocks moves a tuple INTO range:
	// its block must come back in.
	p.ModifyAt(950, 0, pdt.IntVal(250))
	// A mod taking a tuple OUT of range: keeping its block stays sound.
	p.ModifyAt(210, 0, pdt.IntVal(-1))
	// An in-range insert in an otherwise prunable region, and an
	// out-of-range insert that must not resurrect its region.
	p.InsertAt(600, pdt.Row{pdt.IntVal(222), pdt.FloatVal(0), pdt.StrVal("Z")})
	p.InsertAt(0, pdt.Row{pdt.IntVal(5000), pdt.FloatVal(0), pdt.StrVal("Z")})
	// Deletes shift every later RID by one.
	p.DeleteAt(3)

	total := p.NumTuples()
	got := e.ctx.pruneScanRanges(e.snap, []RIDRange{{0, total}}, pred, p)

	img := p.Image(e.snap).I64[0]
	var matches, kept int64
	for rid, v := range img {
		if v >= pred.Lo && v <= pred.Hi {
			matches++
			if !coveredBy(got, int64(rid)) {
				t.Fatalf("matching rid %d (value %d) pruned away; ranges %v", rid, v, got)
			}
		}
	}
	for _, r := range got {
		kept += r.Hi - r.Lo
	}
	if matches == 0 {
		t.Fatal("fixture has no matches")
	}
	if kept >= total {
		t.Fatalf("pruning inactive under deltas: kept %d of %d", kept, total)
	}
	req, skipped := e.ctx.Skip.Counts()
	if req != total || skipped != total-kept {
		t.Fatalf("skip counters %d/%d, want %d/%d", skipped, req, total-kept, total)
	}
}

// TestPruneDeltaRandomized cross-checks delta-widened pruning against
// the materialized image over random update batches and predicate
// windows: no matching tuple may ever be pruned.
func TestPruneDeltaRandomized(t *testing.T) {
	const n = 2000
	e := newEnv(t, n, false)
	e.ctx.Zones = NewZoneMaps()
	e.ctx.Zones.Build(e.snap, 0, 128)
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		p := pdt.New(e.snap.Table().Schema, n)
		for i := 0; i < 30; i++ {
			rid := rng.Int63n(p.NumTuples())
			switch rng.Intn(3) {
			case 0:
				p.InsertAt(rid, pdt.Row{pdt.IntVal(rng.Int63n(2 * n)), pdt.FloatVal(0), pdt.StrVal("x")})
			case 1:
				p.DeleteAt(rid)
			case 2:
				p.ModifyAt(rid, 0, pdt.IntVal(rng.Int63n(2*n)))
			}
		}
		lo := rng.Int63n(n)
		pred := &ScanPredicate{Col: 0, Lo: lo, Hi: lo + rng.Int63n(300)}
		total := p.NumTuples()
		got := e.ctx.pruneScanRanges(e.snap, []RIDRange{{0, total}}, pred, p)
		for rid, v := range p.Image(e.snap).I64[0] {
			if v >= pred.Lo && v <= pred.Hi && !coveredBy(got, int64(rid)) {
				t.Fatalf("iter %d: matching rid %d (value %d) pruned; pred [%d,%d]",
					iter, rid, v, pred.Lo, pred.Hi)
			}
		}
		// Ranges must be sorted, non-overlapping, in bounds.
		for i, r := range got {
			if r.Lo >= r.Hi || r.Lo < 0 || r.Hi > total {
				t.Fatalf("iter %d: bad range %v", iter, r)
			}
			if i > 0 && got[i-1].Hi > r.Lo {
				t.Fatalf("iter %d: overlapping ranges %v", iter, got)
			}
		}
	}
}

// TestZoneMapsDropEvictsRetiredSnapshot: dropping a snapshot removes
// every column index registered for it — and only those — reporting
// which columns to rebuild.
func TestZoneMapsDropEvictsRetiredSnapshot(t *testing.T) {
	a := newEnv(t, 100, false)
	b := newEnv(t, 100, false)
	z := NewZoneMaps()
	z.Build(a.snap, 0, 50)
	z.Build(a.snap, 1, 50)
	z.Build(b.snap, 0, 50)
	if z.Len() != 3 {
		t.Fatalf("len = %d", z.Len())
	}
	cols := z.Drop(a.snap)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 1 {
		t.Fatalf("dropped cols %v, want [0 1]", cols)
	}
	if z.Lookup(a.snap, 0) != nil || z.Lookup(a.snap, 1) != nil {
		t.Fatal("retired snapshot still resolves")
	}
	if z.Lookup(b.snap, 0) == nil || z.Len() != 1 {
		t.Fatal("live snapshot was evicted")
	}
	if got := z.Drop(a.snap); got != nil {
		t.Fatalf("double drop returned %v", got)
	}
}

// rowBag renders b's rows, sorted: the result as a multiset of tuples.
func rowBag(b *Batch) []string {
	rows := make([]string, b.N)
	for i := range rows {
		var sb strings.Builder
		for _, v := range b.Vecs {
			switch v.T {
			case storage.Int64:
				fmt.Fprint(&sb, v.I64[i], "|")
			case storage.Float64:
				fmt.Fprint(&sb, v.F64[i], "|")
			default:
				fmt.Fprint(&sb, v.Str[i], "|")
			}
		}
		rows[i] = sb.String()
	}
	slices.Sort(rows)
	return rows
}

// TestDifferentialScanPredicate holds a predicate Scan and CScan to the
// mechanism their own filter replaced (refPredicateScan), as row
// multisets: over random windows and zone-block sizes on a column that
// ascends with noise, so blocks overlap in value space and windows cut
// through them; over PDT deltas whose inserts, deletes and modifications
// of the predicate column move tuples into and out of the window; and
// over a block whose bounds straddle the window while none of its values
// lies in it. A predicate on a column the scan does not read is refused.
func TestDifferentialScanPredicate(t *testing.T) {
	cols := []int{1, 0, 2} // the predicate column is read second
	t.Run("random", func(t *testing.T) {
		const n = 6000
		rng := rand.New(rand.NewSource(48))
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i/16)*4 + rng.Int63n(40)
		}
		const dmax = n/16*4 + 40
		for iter := 0; iter < 24; iter++ {
			e := newEnvIDs(t, ids, iter%2 == 1)
			e.ctx.Zones = NewZoneMaps()
			e.ctx.Zones.Build(e.snap, 0, []int64{100, 512, 1000, 2048}[rng.Intn(4)])
			var deltas *pdt.PDT
			if iter%4 >= 2 {
				deltas = pdt.New(e.snap.Table().Schema, n)
				for i := 0; i < 60; i++ {
					rid := rng.Int63n(deltas.NumTuples())
					switch rng.Intn(3) {
					case 0:
						deltas.InsertAt(rid, pdt.Row{pdt.IntVal(rng.Int63n(dmax)), pdt.FloatVal(-float64(i)), pdt.StrVal("I")})
					case 1:
						deltas.DeleteAt(rid)
					default:
						deltas.ModifyAt(rid, 0, pdt.IntVal(rng.Int63n(dmax)))
					}
				}
			}
			lo := rng.Int63n(dmax)
			pred := &ScanPredicate{Col: 0, Lo: lo, Hi: lo + rng.Int63n(dmax/4)}
			e.run(func() {
				got := rowBag(Collect(e.ctx.NewScan(e.snap, cols, nil, deltas, pred)))
				want := rowBag(Collect(refPredicateScan(e.ctx.NewScan(e.snap, cols, nil, deltas, nil), cols, pred)))
				if !slices.Equal(got, want) {
					t.Fatalf("iter %d, window [%d,%d]: scan returned %d rows, reference %d",
						iter, pred.Lo, pred.Hi, len(got), len(want))
				}
			})
		}
	})
	t.Run("straddling-block", func(t *testing.T) {
		// Block 3 holds only -100 and 100000: its bounds straddle the
		// window, every other block's lie above it.
		const n, blk = 4096, 512
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i)
			if i/blk == 3 {
				ids[i] = -100 + 100100*int64(i%2)
			}
		}
		pred := &ScanPredicate{Col: 0, Lo: -50, Hi: -10}
		for _, withABM := range []bool{false, true} {
			// run drains the scan build makes in a fresh cold environment,
			// returning its rows and the virtual time it took.
			run := func(build func(e *env) Op) (rows int64, took sim.Time) {
				e := newEnvIDs(t, ids, withABM)
				e.ctx.Zones = NewZoneMaps()
				e.ctx.Zones.Build(e.snap, 0, blk)
				e.ctx.CPU = NewCPU(rt.Sim(e.eng), 1)
				e.ctx.PerTupleCPU = time.Microsecond
				e.run(func() {
					rows = Drain(build(e))
					took = e.eng.Now()
				})
				return rows, took
			}
			rows, took := run(func(e *env) Op { return e.ctx.NewScan(e.snap, cols, nil, nil, pred) })
			_, want := run(func(e *env) Op {
				return e.ctx.NewScan(e.snap, cols, []RIDRange{{3 * blk, 4 * blk}}, nil, nil)
			})
			if rows != 0 {
				t.Fatalf("abm=%v: %d rows pass a window no value lies in", withABM, rows)
			}
			if took != want || took < sim.Time(blk*time.Microsecond) {
				t.Fatalf("abm=%v: predicate scan took %v, the scan of the surviving block %v: its read was not charged",
					withABM, sim.Duration(took), sim.Duration(want))
			}
		}
	})
	t.Run("unread-column", func(t *testing.T) {
		for _, withABM := range []bool{false, true} {
			e := newEnv(t, 100, withABM)
			// Column 0 is not read; column 1 is, but holds float64s.
			for _, pred := range []*ScanPredicate{{Col: 0, Lo: 0, Hi: 10}, {Col: 1, Lo: 0, Hi: 10}} {
				op := e.ctx.NewScan(e.snap, []int{1, 2}, nil, nil, pred)
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("abm=%v: Open accepted a predicate on column %d of a scan of [1 2]", withABM, pred.Col)
						}
					}()
					op.Open()
				}()
			}
		}
	})
}
