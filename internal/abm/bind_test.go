package abm

import (
	"testing"
	"time"

	"repro/internal/iosim"
	"repro/internal/rt"
)

// TestBindRaceWithLoader binds lifecycle handles while the loader is
// choosing among already-registered scans (run with -race): RegisterCScan
// publishes a scan to the loader before its owner can Bind, so the bind
// must not be a bare write. A long-running scan keeps the loader in
// chooseLoad while short scans register, bind and leave around it.
func TestBindRaceWithLoader(t *testing.T) {
	_, snap := fixture(t, 81920) // 20 chunks of 4096
	r := rt.NewReal()
	disk := iosim.New(r, iosim.Config{Bandwidth: 1e9, SeekLatency: 10 * time.Microsecond})
	a := New(r, disk, Config{ChunkTuples: 4096, Capacity: snap.TotalBytes(nil) / 4})

	drain := func(cs *CScan) {
		for {
			d, ok := cs.GetChunk()
			if !ok {
				break
			}
			d.Release()
		}
		cs.Unregister()
	}
	wg := r.NewWaitGroup()
	wg.Add(1)
	r.Go("long", func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			drain(a.RegisterCScan(snap, []int{0, 1}, []SIDRange{{0, snap.NumTuples()}}, false))
		}
	})
	for s := 0; s < 3; s++ {
		s := int64(s)
		wg.Add(1)
		r.Go("binder", func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				lo := (s*7 + int64(i)) % 19 * 4096
				cs := a.RegisterCScan(snap, []int{0}, []SIDRange{{lo, lo + 4096}}, false)
				cs.Bind(rt.NewQueryCtx(r))
				drain(cs)
			}
		})
	}
	r.Go("driver", func() {
		wg.Wait()
		a.Stop()
	})
	done := make(chan struct{})
	go func() { r.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("ABM did not drain")
	}
}
