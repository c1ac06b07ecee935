package buffer

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iosim"
	"repro/internal/rt"
	"repro/internal/storage"
)

// gatedClock is a real runtime on a clock that moves only when a thread
// sleeps, by exactly what it asked for. A sleep first reports itself on
// sleeping and then waits for gate to close, and every park on one of its
// events reports itself on parked, so a test can order two threads around
// a page in flight.
type gatedClock struct {
	rt.Runtime
	now      atomic.Int64
	sleeping chan rt.Duration
	parked   chan struct{}
	gate     chan struct{}
}

// newGatedClock's report channels are buffered beyond the one report a
// test reads from each, so a sleep or a park nobody watches never blocks.
func newGatedClock() *gatedClock {
	return &gatedClock{
		Runtime:  rt.NewReal(),
		sleeping: make(chan rt.Duration, 8),
		parked:   make(chan struct{}, 8),
		gate:     make(chan struct{}),
	}
}

func (c *gatedClock) Now() rt.Time { return rt.Time(c.now.Load()) }

func (c *gatedClock) Sleep(d rt.Duration) {
	c.sleeping <- d
	<-c.gate
	c.now.Add(int64(max(d, 0)))
}

func (c *gatedClock) SleepUntil(t rt.Time) { c.Sleep(rt.Duration(t - c.Now())) }

func (c *gatedClock) NewEvent() rt.Event {
	return gatedEvent{Event: c.Runtime.NewEvent(), parked: c.parked}
}

type gatedEvent struct {
	rt.Event
	parked chan struct{}
}

func (e gatedEvent) Waiter() rt.Waiter { return gatedWaiter{e.Event.Waiter(), e.parked} }

type gatedWaiter struct {
	rt.Waiter
	parked chan struct{}
}

func (w gatedWaiter) Wait() {
	w.parked <- struct{}{}
	w.Waiter.Wait()
}

// TestPaceInFlightWaitIsNotWork: a paced thread that waits 2 ms for a page
// another thread is reading and then charges 1 ms of CPU still sleeps that
// 1 ms. The wait is blocked time, not work: had it been netted as work, it
// would have banked 2 ms of credit and the charge would sleep nothing.
func TestPaceInFlightWaitIsNotWork(t *testing.T) {
	r := newGatedClock()
	// One page transfers in exactly 2 ms.
	disk := iosim.New(r, iosim.Config{Bandwidth: float64(storage.PageSize) * 500})
	pool, pages := NewPool(r, disk, NewLRU(), 4*storage.PageSize), makePages(t, 1)
	get := func(name string) {
		q := rt.NewQueryCtx(r).Fork()
		f, err := pool.GetOwner(q, pages[0])
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		pool.Unpin(f)
		if name == "waiter" {
			if lump := q.Owe(time.Millisecond); lump != time.Millisecond {
				t.Errorf("a 1ms charge after the wait sleeps %v, want 1ms", lump)
			}
		}
	}
	r.Go("reader", func() { get("reader") })
	if d := <-r.sleeping; d != 2*time.Millisecond {
		t.Fatalf("the reader sleeps %v for its read, want 2ms", d)
	}
	r.Go("waiter", func() { get("waiter") })
	<-r.parked
	close(r.gate)
	runWithin(t, r)
	if st := pool.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v, want one miss and one hit on the page in flight", st)
	}
}
