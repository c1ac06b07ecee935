package rt

import (
	"runtime"
	"sync"
	"time"
)

// NewReal returns the real-threaded runtime: processes are goroutines,
// the clock is wall time since construction, sleeps park the calling
// goroutine for real durations, and events are channel broadcasts. Runs
// are NOT reproducible — this mode exists to serve traffic as fast as the
// hardware allows, not to regenerate figures.
//
// A sleep never ends before its deadline. On Linux it parks on a timerfd
// and ends about a tenth of a millisecond after it (sleep_linux.go);
// elsewhere, and when the clock is not the OS clock (a testing/synctest
// bubble), it is time.Sleep.
func NewReal() Runtime {
	return &realRT{epoch: time.Now(), sleep: sleeper()}
}

type realRT struct {
	epoch time.Time
	wg    sync.WaitGroup
	sleep func(Duration)
}

func (r *realRT) Real() bool { return true }

func (r *realRT) Now() Time { return Time(time.Since(r.epoch)) }

// Go spawns fn as a goroutine tracked by Run. Spawning from within a
// tracked goroutine is safe: the parent's count is still positive when
// the child's Add executes.
func (r *realRT) Go(name string, fn func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn()
	}()
}

func (r *realRT) Sleep(d Duration) {
	if d > 0 {
		r.sleep(d)
		return
	}
	runtime.Gosched()
}

func (r *realRT) SleepUntil(t Time) {
	if d := Duration(t - r.Now()); d > 0 {
		r.sleep(d)
	}
}

func (r *realRT) NewEvent() Event {
	return &realEvent{ch: make(chan struct{})}
}

func (r *realRT) NewResource(capacity int) Resource {
	if capacity <= 0 {
		panic("rt: resource capacity must be positive")
	}
	return &realResource{ch: make(chan struct{}, capacity)}
}

func (r *realRT) NewWaitGroup() WaitGroup { return &sync.WaitGroup{} }

func (r *realRT) Run() { r.wg.Wait() }

// realEvent broadcasts by closing the current generation's channel and
// installing a fresh one. A Waiter captures the channel of the generation
// it was obtained in, so a Fire between Waiter() and Wait() is never
// lost: Wait finds the captured channel already closed and returns
// immediately.
type realEvent struct {
	mu sync.Mutex
	ch chan struct{}
}

func (e *realEvent) Waiter() Waiter {
	e.mu.Lock()
	ch := e.ch
	e.mu.Unlock()
	return chanWaiter(ch)
}

func (e *realEvent) Wait() { e.Waiter().Wait() }

func (e *realEvent) Fire() {
	e.mu.Lock()
	close(e.ch)
	e.ch = make(chan struct{})
	e.mu.Unlock()
}

type chanWaiter chan struct{}

func (w chanWaiter) Wait() { <-w }

// realResource is a buffered-channel semaphore; blocked Acquirers are
// served in the runtime's wake order (approximately FIFO), not the sim
// resource's strict FIFO — callers must not rely on fairness.
type realResource struct {
	ch chan struct{}
}

func (r *realResource) Acquire() { r.ch <- struct{}{} }

func (r *realResource) Release() {
	select {
	case <-r.ch:
	default:
		panic("rt: Release without Acquire")
	}
}

func (r *realResource) InUse() int    { return len(r.ch) }
func (r *realResource) Capacity() int { return cap(r.ch) }
