package integration

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestMinMaxPrunedScan wires the §2.3 pieces together: a MinMax zone map
// registered in the context lets a predicate-carrying Scan prune itself
// to a few fine-grained ranges at Open, and its own filter's result
// matches the unpruned scan under a Select while reading far fewer pages.
func TestMinMaxPrunedScan(t *testing.T) {
	cat := storage.NewCatalog()
	s := newSys(workload.PBM, 1<<24)
	snap := buildTable(t, cat, 40000)
	// Column 0 (k) is sorted 0..n-1: ideal for MinMax pruning.
	s.ctx.Zones = exec.NewZoneMaps()
	s.ctx.Zones.Build(snap, 0, 2048)
	s.ctx.Skip = &exec.SkipStats{}
	filter := exec.Between(exec.Col{Idx: 0, T: storage.Int64}, 30000, 30100)
	full := []exec.RIDRange{{Lo: 0, Hi: 40000}}
	s.run(func() {
		want := exec.Collect(&exec.Select{
			Child: &exec.Scan{Ctx: s.ctx, Snap: snap, Cols: []int{0}, Ranges: full},
			Pred:  filter,
		})
		missesFull := s.pool.Stats().Misses

		s.pool.FlushAll()
		got := exec.Collect(&exec.Scan{Ctx: s.ctx, Snap: snap, Cols: []int{0}, Ranges: full,
			Pred: &exec.ScanPredicate{Col: 0, Lo: 30000, Hi: 30100}})
		missesPruned := s.pool.Stats().Misses - missesFull

		if got.N != want.N || got.N != 101 {
			t.Errorf("pruned N = %d, want %d (=101)", got.N, want.N)
			return
		}
		for i := 0; i < got.N; i++ {
			if got.Vecs[0].I64[i] != want.Vecs[0].I64[i] {
				t.Errorf("value mismatch at %d", i)
				return
			}
		}
		if missesPruned >= missesFull {
			t.Errorf("pruned scan read %d pages, full scan %d", missesPruned, missesFull)
		}
		req, skip := s.ctx.Skip.Counts()
		if req != 40000 || skip <= 0 || skip >= 40000 {
			t.Errorf("skip counters requested=%d skipped=%d", req, skip)
		}
	})
}
