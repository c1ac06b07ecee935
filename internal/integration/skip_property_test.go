package integration

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/abm"
	"repro/internal/buffer"
	"repro/internal/exec"
	"repro/internal/iosim"
	"repro/internal/pbm"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// newStripedSys is newSys with a multi-device striped array, so the
// skipping property is also checked where read-ahead batches split
// around pruned runs and surviving blocks stripe across spindles.
func newStripedSys(policy workload.Policy, capBytes int64, devices, stripeChunk int) *sys {
	s := &sys{eng: sim.NewEngine()}
	s.disk = iosim.NewArray(rt.Sim(s.eng), iosim.ArrayConfig{
		Config:      iosim.Config{Bandwidth: 500e6, SeekLatency: 20 * time.Microsecond},
		Devices:     devices,
		StripeChunk: stripeChunk,
	})
	s.ctx = &exec.Ctx{RT: rt.Sim(s.eng), ReadAheadTuples: 8192}
	if policy == workload.CScan {
		s.abm = abm.New(rt.Sim(s.eng), s.disk, abm.Config{ChunkTuples: 2048, Capacity: capBytes})
		s.ctx.ABM = s.abm
		return s
	}
	s.pbm = pbm.New(s.eng, pbm.DefaultConfig())
	s.pool = buffer.NewPool(rt.Sim(s.eng), s.disk, s.pbm, capBytes)
	s.ctx.Pool = s.pool
	s.ctx.PBM = s.pbm
	return s
}

// buildNoisy creates a table whose key column ascends with per-block
// noise, so adjacent zone-map blocks overlap in value space: predicates
// genuinely straddle block boundaries instead of cutting cleanly.
func buildNoisy(t testing.TB, cat *storage.Catalog, n int, rng *rand.Rand) (*storage.Snapshot, []int64, []float64) {
	t.Helper()
	tb, err := cat.CreateTable("p", storage.Schema{
		{Name: "d", Type: storage.Int64, Width: 8},
		{Name: "v", Type: storage.Float64, Width: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := make([]int64, n)
	vs := make([]float64, n)
	for i := 0; i < n; i++ {
		ds[i] = int64(i/64)*8 + rng.Int63n(16)
		vs[i] = float64(i%97) / 7
	}
	cd := storage.NewColumnData()
	cd.I64[0] = ds
	cd.F64[1] = vs
	snap, err := tb.Master().Append(cd)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	return snap, ds, vs
}

// TestPropertySkippingScanEquivalence is the data-skipping soundness
// property: for any predicate window, a predicate scan (zone maps
// pruning chunks before any I/O, its own filter on every vector read)
// must return exactly the tuple set and aggregates of filtering the
// generated table — across zone-block sizes that do and do not divide
// the table, both scan operators, and a striped multi-device array.
// Pruning may only ever be conservative, and the filter exact.
func TestPropertySkippingScanEquivalence(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(23))
	configs := []struct {
		name    string
		policy  workload.Policy
		devices int
		stripe  int
		zoneBlk int64
	}{
		{"scan/blk512", workload.PBM, 1, 0, 512},
		{"scan/blk1000", workload.PBM, 1, 0, 1000}, // does not divide n: ragged last block
		{"scan/blk4096/striped", workload.PBM, 4, 8, 4096},
		{"cscan/blk512", workload.CScan, 1, 0, 512}, // zone blocks finer than ABM chunks
		{"cscan/blk2048", workload.CScan, 1, 0, 2048},
		{"cscan/blk1000/striped", workload.CScan, 4, 8, 1000},
	}
	for _, tc := range configs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cat := storage.NewCatalog()
			s := newStripedSys(tc.policy, 1<<24, tc.devices, tc.stripe)
			snap, ds, vs := buildNoisy(t, cat, n, rng)
			s.ctx.Zones = exec.NewZoneMaps()
			s.ctx.Zones.Build(snap, 0, tc.zoneBlk)
			s.ctx.Skip = &exec.SkipStats{}
			dmax := ds[0]
			for _, d := range ds {
				if d > dmax {
					dmax = d
				}
			}
			// Deterministic edge windows plus random draws: full domain,
			// empty (lo > hi), single value, windows cutting exactly at a
			// zone-block value boundary, and out-of-domain on both sides.
			type window struct{ lo, hi int64 }
			windows := []window{
				{0, dmax},
				{100, 50},
				{ds[n/2], ds[n/2]},
				{ds[int(tc.zoneBlk)], ds[2*int(tc.zoneBlk)] - 1},
				{-100, -1},
				{dmax + 1, dmax + 100},
			}
			for i := 0; i < 8; i++ {
				lo := rng.Int63n(dmax + 1)
				windows = append(windows, window{lo, lo + rng.Int63n(dmax-lo+1)})
			}
			full := []exec.RIDRange{{Lo: 0, Hi: n}}
			s.run(func() {
				for _, w := range windows {
					// Ground truth from the generator's arrays.
					var wantVals []int64
					var wantSum float64
					for i, d := range ds {
						if d >= w.lo && d <= w.hi {
							wantVals = append(wantVals, d)
							wantSum += vs[i]
						}
					}
					sort.Slice(wantVals, func(i, j int) bool { return wantVals[i] < wantVals[j] })

					var scan exec.Operator
					if tc.policy == workload.CScan {
						scan = &exec.CScan{Ctx: s.ctx, Snap: snap, Cols: []int{0, 1}, Ranges: full,
							Pred: &exec.ScanPredicate{Col: 0, Lo: w.lo, Hi: w.hi}}
					} else {
						scan = &exec.Scan{Ctx: s.ctx, Snap: snap, Cols: []int{0, 1}, Ranges: full,
							Pred: &exec.ScanPredicate{Col: 0, Lo: w.lo, Hi: w.hi}}
					}
					res := exec.Collect(scan)
					gotVals := make([]int64, res.N)
					var gotSum float64
					for i := 0; i < res.N; i++ {
						gotVals[i] = res.Vecs[0].I64[i]
						gotSum += res.Vecs[1].F64[i]
					}
					sort.Slice(gotVals, func(i, j int) bool { return gotVals[i] < gotVals[j] })
					if len(gotVals) != len(wantVals) {
						t.Fatalf("window [%d,%d]: pruned scan returned %d tuples, want %d",
							w.lo, w.hi, len(gotVals), len(wantVals))
					}
					for i := range wantVals {
						if gotVals[i] != wantVals[i] {
							t.Fatalf("window [%d,%d]: tuple %d = %d, want %d",
								w.lo, w.hi, i, gotVals[i], wantVals[i])
						}
					}
					if gotSum != wantSum {
						t.Fatalf("window [%d,%d]: sum(v) = %v, want %v", w.lo, w.hi, gotSum, wantSum)
					}
				}
			})
			if req, _ := s.ctx.Skip.Counts(); req == 0 {
				t.Fatal("pruning never engaged: requested-tuple counter is zero")
			}
		})
	}
}
