package abm

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iosim"
	"repro/internal/rt"
)

// TestABMCheckUnderTraffic: on threads, Check(false) passes at every poll
// while four scans share a pool a quarter of the table's size — loads,
// deliveries, evictions and heir transfers under way, one scan cancelled
// mid-flight — and Check(true) once they are done.
func TestABMCheckUnderTraffic(t *testing.T) {
	_, snap := fixture(t, 81920) // 20 chunks of 4096
	r := rt.NewReal()
	disk := iosim.New(r, iosim.Config{Bandwidth: 1e9, SeekLatency: 10 * time.Microsecond})
	a := New(r, disk, Config{ChunkTuples: 4096, Capacity: snap.TotalBytes(nil) / 4})
	wg := r.NewWaitGroup()
	for s := 0; s < 4; s++ {
		s := s
		wg.Add(1)
		r.Go("scan", func() {
			defer wg.Done()
			qc := rt.NewQueryCtx(r)
			cs := a.RegisterCScan(snap, []int{0, 1}, []SIDRange{{0, snap.NumTuples()}}, false)
			cs.Bind(qc)
			for n := 0; ; n++ {
				d, ok := cs.GetChunk()
				if !ok {
					break
				}
				if s == 0 && n == 5 {
					qc.Cancel(rt.CauseClientCancel)
				}
				d.Release()
			}
			cs.Unregister()
		})
	}
	var done atomic.Bool
	polls := 0
	r.Go("poller", func() {
		for ; !done.Load(); polls++ {
			if err := a.Check(false); err != nil {
				t.Errorf("poll %d: %v", polls, err)
				return
			}
		}
	})
	r.Go("driver", func() {
		wg.Wait()
		done.Store(true)
		a.Stop()
	})
	r.Run()
	if err := a.Check(true); err != nil || polls == 0 {
		t.Fatalf("after %d polls: %v", polls, err)
	}
}
