package buffer

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rt"
)

// Real-runtime pool tests: run with -race. They hammer the paths the
// Runtime refactor converted from cooperative-scheduling invariants to
// explicit synchronization — concurrent gets, reservation stalls and
// their wake-ups, and shared loads of the same missing page.

// runWithin drives r until every process has ended, failing the test
// after a minute instead: on the real runtime a lost wake-up is a hang.
func runWithin(t *testing.T, r rt.Runtime) {
	t.Helper()
	done := make(chan struct{})
	go func() { r.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("run did not finish: a blocked reservation was never woken")
	}
}

func TestRealPoolConcurrentGetUnpin(t *testing.T) {
	r := rt.NewReal()
	pool, pages := poolOn(t, r, NewLRU(), 8, 64)
	const workers = 16
	var pins atomic.Int64
	for w := 0; w < workers; w++ {
		w := w
		r.Go("scanner", func() {
			for i := 0; i < 200; i++ {
				pg := pages[(w*31+i*7)%len(pages)]
				f := pool.Get(pg)
				if f.Page != pg {
					t.Errorf("got frame for page %d, want %d", f.Page.ID, pg.ID)
					pool.Unpin(f)
					return
				}
				pins.Add(1)
				pool.Unpin(f)
			}
		})
	}
	r.Run()
	if t.Failed() {
		return
	}
	if pins.Load() != workers*200 {
		t.Fatalf("completed %d/%d gets", pins.Load(), workers*200)
	}
	st := pool.Stats()
	if st.Hits+st.Misses != workers*200 {
		t.Fatalf("hits %d + misses %d != %d accesses", st.Hits, st.Misses, workers*200)
	}
	if used, cap := pool.Used(), pool.Capacity(); used > cap {
		t.Fatalf("pool left overcommitted: %d/%d", used, cap)
	}
}

// TestRealPoolStallWakeup drives the pool into reservation stalls: the
// whole pool is pinned until a worker's reservation has stalled, and the
// workers then pin more frames concurrently than fit. A lost wake-up would
// hang, so completion of this test under -race is the proof that every
// stall is woken.
func TestRealPoolStallWakeup(t *testing.T) {
	r := rt.NewReal()
	pool, pages := poolOn(t, r, NewLRU(), 4, 32)
	const workers = 8
	r.Go("holder", func() {
		var held []*Frame
		for _, pg := range pages[:4] {
			held = append(held, pool.Get(pg))
		}
		for w := 0; w < workers; w++ {
			w := w
			r.Go("pinner", func() {
				for i := 0; i < 150; i++ {
					f := pool.Get(pages[(w*13+i*5)%len(pages)])
					// Hold the pin briefly so reservations keep stalling
					// on pinned frames and must be woken by Unpin.
					if i%7 == 0 {
						r.Sleep(50 * time.Microsecond)
					}
					pool.Unpin(f)
				}
			})
		}
		for pool.Stats().Stalls == 0 {
			r.Sleep(time.Millisecond)
		}
		for _, f := range held {
			pool.Unpin(f)
		}
	})
	runWithin(t, r)
	if st := pool.Stats(); st.Stalls == 0 {
		t.Fatal("no reservation stalled")
	}
}

// TestOneFreeWakesOneReserver: on threads, one unpin wakes one of four
// reservers parked on a full pool, not all of them. The one woken evicts
// the unpinned frame and loads its page; that load's completion passes
// one wake on, so at most one more stall is counted, and no other Get
// returns while the pool's second frame stays pinned.
func TestOneFreeWakesOneReserver(t *testing.T) {
	r := rt.NewReal()
	pool, pages := poolOn(t, r, NewLRU(), 2, 6)
	const reservers = 4
	got := make(chan *Frame, reservers)
	var returned int
	var stalls int64
	r.Go("holder", func() {
		f0, f1 := pool.Get(pages[0]), pool.Get(pages[1])
		for _, pg := range pages[2 : 2+reservers] {
			pg := pg
			r.Go("reserver", func() { got <- pool.Get(pg) })
		}
		for pool.Stats().Stalls < reservers {
			r.Sleep(time.Millisecond)
		}
		pool.Unpin(f0)
		r.Sleep(50 * time.Millisecond)
		returned, stalls = len(got), pool.Stats().Stalls
		// Drain: every frame released lets the next reserver in.
		pool.Unpin(f1)
		for i := 0; i < reservers; i++ {
			pool.Unpin(<-got)
		}
	})
	runWithin(t, r)
	if returned != 1 {
		t.Errorf("%d Gets returned after one unpin, want 1", returned)
	}
	if stalls > reservers+1 {
		t.Errorf("stalls = %d after one unpin, want at most %d: the free woke more than one reserver", stalls, reservers+1)
	}
}

func TestRealPoolGetRunSharedLoads(t *testing.T) {
	r := rt.NewReal()
	pool, pages := poolOn(t, r, NewLRU(), 16, 48)
	const workers = 8
	for w := 0; w < workers; w++ {
		w := w
		r.Go("runner", func() {
			for i := 0; i+8 <= len(pages); i += 4 {
				run := pages[i : i+8]
				if (w+i)%2 == 0 {
					f := pool.GetRun(run)
					pool.Unpin(f)
				} else {
					f := pool.Get(run[0])
					pool.Unpin(f)
				}
			}
		})
	}
	r.Run()
	st := pool.Stats()
	if st.BytesLoaded == 0 {
		t.Fatal("no bytes loaded")
	}
	if err := pool.Check(true); err != nil {
		t.Error(err)
	}
}
