package exec

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/abm"
	"repro/internal/iosim"
	"repro/internal/storage"
)

// refHeat is the reference count ChunkHeat must reproduce: one per page
// of every column over every range, folded per stripe chunk.
func refHeat(snap *storage.Snapshot, cols []int, ranges []RIDRange, stripeChunk int64) []float64 {
	var heat []float64
	for _, r := range ranges {
		for _, col := range cols {
			for _, pg := range snap.PagesInRange(col, r.Lo, r.Hi) {
				c := int64(pg.Block) / stripeChunk
				for int64(len(heat)) <= c {
					heat = append(heat, 0)
				}
				heat[c]++
			}
		}
	}
	return heat
}

// TestChunkHeatScanAndCScanCountTheSame: Scans and CScans over the same
// ranges and columns count the same per-chunk heat, the reference
// walk's, whichever buffer manager serves them — run concurrently on the
// simulator and on real threads (run with -race: the scans share one
// counter each).
func TestChunkHeatScanAndCScanCountTheSame(t *testing.T) {
	const n, scans = 20000, 3
	cols := []int{0, 2}
	ranges := []RIDRange{{100, 2500}, {2400, 9000}, {15000, n}}
	for _, mode := range []string{"sim", "real"} {
		t.Run(mode, func(t *testing.T) {
			var e *env
			if mode == "sim" {
				e = newEnv(t, n, true)
			} else {
				e, _ = newRealEnv(t, n)
				r := e.ctx.RT
				e.abm = abm.New(r, iosim.New(r, iosim.Config{Bandwidth: 10e9}), abm.Config{ChunkTuples: 2048, Capacity: 1 << 30})
				e.ctx.ABM = e.abm
			}
			r := e.ctx.RT
			scanCtx, cscanCtx := *e.ctx, *e.ctx
			scanCtx.Heat, cscanCtx.Heat = NewChunkHeat(4), NewChunkHeat(4)
			r.Go("test", func() {
				wg := r.NewWaitGroup()
				for i := 0; i < scans; i++ {
					for _, op := range []Op{
						&Scan{Ctx: &scanCtx, Snap: e.snap, Cols: cols, Ranges: ranges},
						&CScan{Ctx: &cscanCtx, Snap: e.snap, Cols: cols, Ranges: ranges},
					} {
						op := op
						wg.Add(1)
						r.Go("scan", func() {
							defer wg.Done()
							Drain(op)
						})
					}
				}
				wg.Wait()
				e.abm.Stop()
			})
			done := make(chan struct{})
			go func() { r.Run(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("scans left a process parked: Run never returned")
			}
			want := refHeat(e.snap, cols, ranges, 4)
			if len(want) < 2 {
				t.Fatalf("reference heat %v spans too few chunks to test", want)
			}
			for i := range want {
				want[i] *= scans
			}
			if got := scanCtx.Heat.Chunks(); !reflect.DeepEqual(got, want) {
				t.Errorf("Scan heat\n got %v\nwant %v", got, want)
			}
			if got := cscanCtx.Heat.Chunks(); !reflect.DeepEqual(got, want) {
				t.Errorf("CScan heat\n got %v\nwant %v", got, want)
			}
		})
	}
}
