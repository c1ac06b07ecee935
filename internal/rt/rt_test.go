package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// Both runtimes must satisfy the same observable contract for the pieces
// the engine components rely on; the sim side additionally guarantees
// determinism, which internal/sim's own tests cover.

func runtimes(t *testing.T) map[string]func() Runtime {
	return map[string]func() Runtime{
		"sim":  func() Runtime { return Sim(sim.NewEngine()) },
		"real": NewReal,
	}
}

func TestRunWaitsForAllProcesses(t *testing.T) {
	for name, mk := range runtimes(t) {
		t.Run(name, func(t *testing.T) {
			r := mk()
			var n atomic.Int64
			for i := 0; i < 8; i++ {
				r.Go("p", func() {
					r.Sleep(time.Microsecond)
					// Spawning from within a process must also be tracked.
					r.Go("child", func() { n.Add(1) })
					n.Add(1)
				})
			}
			r.Run()
			if got := n.Load(); got != 16 {
				t.Fatalf("Run returned with %d/16 processes finished", got)
			}
		})
	}
}

func TestEventFireWakesAllWaiters(t *testing.T) {
	for name, mk := range runtimes(t) {
		t.Run(name, func(t *testing.T) {
			r := mk()
			ev := r.NewEvent()
			var woken atomic.Int64
			var ready sync.WaitGroup
			ready.Add(3)
			for i := 0; i < 3; i++ {
				r.Go("waiter", func() {
					w := ev.Waiter()
					ready.Done()
					w.Wait()
					woken.Add(1)
				})
			}
			r.Go("firer", func() {
				if r.Real() {
					ready.Wait() // all waiters registered
				} else {
					r.Sleep(0) // let the cooperative waiters park
				}
				ev.Fire()
			})
			r.Run()
			if woken.Load() != 3 {
				t.Fatalf("woken %d/3", woken.Load())
			}
		})
	}
}

// TestRealWaiterCatchesFireBeforeWait is the lost-wake-up guarantee the
// check-then-block call sites depend on: a Fire between Waiter() and
// Wait() must not be lost.
func TestRealWaiterCatchesFireBeforeWait(t *testing.T) {
	r := NewReal()
	ev := r.NewEvent()
	w := ev.Waiter()
	ev.Fire()
	done := make(chan struct{})
	go func() { w.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Wait missed a Fire that happened after Waiter()")
	}
	// But a waiter obtained after the Fire must block until the next one.
	w2 := ev.Waiter()
	blocked := make(chan struct{})
	go func() { w2.Wait(); close(blocked) }()
	select {
	case <-blocked:
		t.Fatal("Waiter obtained after Fire did not block")
	case <-time.After(20 * time.Millisecond):
	}
	ev.Fire()
	<-blocked
}

func TestRealResourceBoundsConcurrency(t *testing.T) {
	r := NewReal()
	res := r.NewResource(3)
	var cur, peak atomic.Int64
	for i := 0; i < 20; i++ {
		r.Go("worker", func() {
			res.Acquire()
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			res.Release()
		})
	}
	r.Run()
	if p := peak.Load(); p > 3 {
		t.Fatalf("resource admitted %d concurrent holders with capacity 3", p)
	}
	if res.InUse() != 0 {
		t.Fatalf("leaked units: %d in use", res.InUse())
	}
}

// TestRealRunsProcessesInParallel proves the real runtime actually uses
// more than one OS thread: two processes rendezvous, which can only
// complete if they execute simultaneously.
func TestRealRunsProcessesInParallel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >=2 procs")
	}
	r := NewReal()
	a, b := make(chan struct{}), make(chan struct{})
	ok := make(chan struct{}, 2)
	rendezvous := func(mine, theirs chan struct{}) func() {
		return func() {
			close(mine)
			select {
			case <-theirs:
				ok <- struct{}{}
			case <-time.After(5 * time.Second):
			}
		}
	}
	r.Go("a", rendezvous(a, b))
	r.Go("b", rendezvous(b, a))
	r.Run()
	if len(ok) != 2 {
		t.Fatal("processes did not overlap: the runtime is not running on multiple threads")
	}
}

func TestRealSleepAdvancesClock(t *testing.T) {
	r := NewReal()
	t0 := r.Now()
	r.Go("sleeper", func() { r.Sleep(5 * time.Millisecond) })
	r.Run()
	if d := time.Duration(r.Now() - t0); d < 5*time.Millisecond {
		t.Fatalf("clock advanced only %v across a 5ms sleep", d)
	}
}

func TestRealSleepUntilPast(t *testing.T) {
	r := NewReal()
	r.SleepUntil(r.Now() - Time(time.Second)) // must not block
	wg := r.NewWaitGroup()
	wg.Add(1)
	r.Go("p", func() { defer wg.Done(); r.SleepUntil(r.Now() + Time(time.Millisecond)) })
	wg.Wait()
	r.Run()
}
