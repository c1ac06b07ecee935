package buffer

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/rt"
)

// TestPoolCheckUnderTraffic: on threads, Check(false) passes at every
// poll while four workers read runs into a pool they keep full — pins,
// loads, evictions and reservers racing for the last free bytes — and
// Check(true) once they are done.
func TestPoolCheckUnderTraffic(t *testing.T) {
	r := rt.NewReal()
	pool, pages := poolOn(t, r, NewLRU(), 8, 32)
	wg := r.NewWaitGroup()
	for w := 0; w < 4; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		wg.Add(1)
		r.Go("worker", func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				at := rng.Intn(len(pages) - 4)
				pool.Unpin(pool.GetRun(pages[at : at+1+rng.Intn(4)]))
			}
		})
	}
	var done atomic.Bool
	polls := 0
	r.Go("poller", func() {
		for ; !done.Load(); polls++ {
			if err := pool.Check(false); err != nil {
				t.Errorf("poll %d: %v", polls, err)
				return
			}
		}
	})
	r.Go("driver", func() {
		wg.Wait()
		done.Store(true)
	})
	r.Run()
	if err := pool.Check(true); err != nil || polls == 0 {
		t.Fatalf("after %d polls: %v", polls, err)
	}
}
