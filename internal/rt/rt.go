// Package rt is the runtime seam between the deterministic discrete-event
// simulator and real-threaded execution. Every engine component (disk
// model, buffer pool, ABM, scheduler, executor) programs against the
// Runtime interface — clock, spawn, sleep, and wait/wake primitives —
// instead of *sim.Engine directly, so the same code runs in two modes:
//
//   - Sim wraps the cooperative internal/sim engine: one process runs at
//     a time on a virtual clock, which makes every run bit-reproducible.
//     This is the default and the only mode the paper's figures use.
//   - NewReal runs processes as plain goroutines on the wall clock:
//     sleeps are real sleeps that never end early (on Linux they park on
//     a timerfd and end within about a tenth of a millisecond of the
//     deadline, not the millisecond Go's timer rounds to), waits are
//     channel waits, and as many processes run simultaneously as
//     GOMAXPROCS allows.
//
// The components' shared-state protection is ordinary sync.Mutex. In sim
// mode those mutexes are uncontended by construction (exactly one process
// executes at any moment) and never held across a yield point from the
// engine's point of view, so they cost nanoseconds and cannot perturb the
// virtual-time trajectory; in real mode they are load-bearing.
//
// Every component runs one mechanism in both modes, the buffer pool's
// one-wake-per-free hand-off to blocked reservations included. Two places
// branch on Real, on purpose: QueryCtx.Fork, which paces a scan thread's
// modelled time on the wall clock (pace.go), and the executor's split
// chains (internal/exec's split.go), which on the simulator alone run an
// aggregate's vector work on a host goroutine beside the one simulated
// process that runs — work that takes no simulated time and calls no
// Runtime method, so no event moves.
package rt

import (
	"time"

	"repro/internal/sim"
)

// Time is a timestamp in nanoseconds since the start of the run: virtual
// in sim mode, wall-clock-since-epoch in real mode.
type Time = sim.Time

// Duration is a span of (virtual or real) time.
type Duration = time.Duration

// Waiter is registered interest in an Event firing. Wait blocks until the
// first Fire that happens after the Waiter was obtained — obtaining the
// Waiter before releasing a mutex and calling Wait after closes the
// classic lost-wake-up window of check-then-block code.
type Waiter interface {
	Wait()
}

// Event is a reusable broadcast synchronization point: a Fire wakes every
// process currently waiting; processes that arrive after a Fire block
// until the next one.
type Event interface {
	// Wait blocks until the next Fire (equivalent to Waiter().Wait()).
	Wait()
	// Waiter registers interest now and returns a handle to block on.
	Waiter() Waiter
	// Fire wakes all current waiters. It is safe to call from any
	// process/goroutine and never blocks.
	Fire()
}

// Resource is a counting semaphore: a fixed number of interchangeable
// units that processes acquire and release.
type Resource interface {
	Acquire()
	Release()
	InUse() int
	Capacity() int
}

// WaitGroup counts outstanding work with the sync.WaitGroup contract.
type WaitGroup interface {
	Add(delta int)
	Done()
	Wait()
}

// Runtime is the execution substrate: clock, process spawning, sleeping,
// and synchronization primitive factories.
type Runtime interface {
	// Real reports whether this is the real-threaded runtime. Only pacing
	// branches on it (QueryCtx.Fork: modelled time is slept on the wall
	// clock, and the virtual clock needs no pacing); everything else is
	// mode-blind.
	Real() bool
	// Now returns the current time (virtual or wall).
	Now() Time
	// Go spawns fn as a process. In sim mode it does not start until the
	// scheduler hands it the execution token; in real mode it is a
	// goroutine tracked until completion by Run.
	Go(name string, fn func())
	// Sleep suspends the caller for at least d. Non-positive d yields.
	Sleep(d Duration)
	// SleepUntil suspends the caller until at least time t (no-op if t
	// has passed).
	SleepUntil(t Time)
	NewEvent() Event
	NewResource(capacity int) Resource
	NewWaitGroup() WaitGroup
	// Run drives the runtime until every spawned process has terminated.
	// Call exactly once, after spawning the initial processes.
	Run()
}
