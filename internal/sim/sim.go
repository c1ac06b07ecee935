//go:build go1.23

// The build line above lets this file import iter while both go.mod lines
// still say go 1.21 (bench/go.mod may only be raised by a [benchmark] PR,
// and the two must agree); delete it when they say 1.23.

// Package sim implements a deterministic, cooperative discrete-event
// simulation engine with a virtual clock.
//
// A simulated process is a coroutine (iter.Pull around its body), so
// exactly one goroutine is runnable at any moment: Run resumes the next
// process, which runs until it sleeps, waits on an event or terminates
// and then parks back into Run — a direct goroutine switch with no
// scheduler, channel or thread wake-up in between. Ties between timers
// that expire at the same virtual instant are broken by creation order.
// Together these rules make every simulation bit-reproducible, which the
// experiment harness relies on.
//
// All Engine methods except Run must be called either before Run starts or
// from within a running process; the engine's state is only ever touched by
// the single running process, so no locking is needed.
package sim

import (
	"fmt"
	"iter"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is convertible to
// and from time.Duration.
type Duration = time.Duration

// Seconds renders t as fractional seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string { return time.Duration(t).String() }

// proc is one simulated process: a coroutine around its body. Run calls
// resume to run it until it next blocks; the process calls park, naming
// the process Run must resume in its place.
type proc struct {
	name   string
	resume func() (next *proc, parked bool) // false once the body returned
	park   func(next *proc) bool
}

type timer struct {
	at  Time
	seq uint64
	p   *proc
}

func (t timer) before(o timer) bool {
	if t.at != o.at {
		return t.at < o.at
	}
	return t.seq < o.seq
}

// timerHeap is a binary min-heap on (at, seq).
type timerHeap []timer

func (h *timerHeap) push(t timer) {
	s := append(*h, t)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !t.before(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = t
	*h = s
}

func (h *timerHeap) pop() timer {
	s := *h
	top, last := s[0], s[len(s)-1]
	s[len(s)-1] = timer{}
	s = s[:len(s)-1]
	*h = s
	i := 0
	for {
		child := 2*i + 1
		if child >= len(s) {
			break
		}
		if r := child + 1; r < len(s) && s[r].before(s[child]) {
			child = r
		}
		if !s[child].before(last) {
			break
		}
		s[i] = s[child]
		i = child
	}
	if len(s) > 0 {
		s[i] = last
	}
	return top
}

// Engine is a virtual-time discrete-event scheduler.
type Engine struct {
	now     Time
	seq     uint64
	ready   []*proc // FIFO; ready[:head] has been popped
	head    int
	timers  timerHeap
	current *proc
	alive   int
	running bool
	picks   uint64 // processes next has picked to run
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Picks returns how many times the engine has picked a process to run:
// once when it starts and once at each wake-up, a sleep of zero included.
// Two runs that schedule the same processes in the same order make the
// same number of picks.
func (e *Engine) Picks() uint64 { return e.picks }

// Go spawns fn as a simulated process. It may be called before Run or from
// within a running process. The process does not start executing until the
// scheduler hands it the execution token.
func (e *Engine) Go(name string, fn func()) {
	p := &proc{name: name}
	p.resume, _ = iter.Pull(func(park func(*proc) bool) {
		p.park = park
		fn()
	})
	e.alive++
	e.ready = append(e.ready, p)
}

// next picks the next runnable process, advancing the clock to the earliest
// timer if the ready queue is empty. It returns nil when nothing can run.
func (e *Engine) next() *proc {
	if e.head < len(e.ready) {
		e.picks++
		p := e.ready[e.head]
		e.ready[e.head] = nil
		e.head++
		if e.head == len(e.ready) {
			// Drained: reuse the array from its front instead of
			// abandoning it one popped slot at a time.
			e.ready, e.head = e.ready[:0], 0
		}
		return p
	}
	if len(e.timers) > 0 {
		e.picks++
		t := e.timers.pop()
		if t.at > e.now {
			e.now = t.at
		}
		return t.p
	}
	return nil
}

// yield blocks the current process (which must already have parked itself
// in a timer or event wait list) and transfers control. When the
// scheduler picks the yielding process itself as the next runnable (it
// was the earliest timer and nothing else is ready), control simply
// stays with it — the clock has already advanced in next().
func (e *Engine) yield(self *proc) {
	next := e.next()
	if next == nil {
		panic(fmt.Sprintf("sim: deadlock: process %q blocked with nothing runnable", self.name))
	}
	if next == self {
		return
	}
	self.park(next)
}

// Sleep suspends the current process for d of virtual time. Negative or
// zero durations still yield, waking at the current instant after other
// already-runnable processes.
func (e *Engine) Sleep(d Duration) {
	at := e.now
	if d > 0 {
		at += Time(d)
	}
	e.sleepUntil("Sleep", at)
}

// SleepUntil suspends the current process until virtual time t (or yields
// immediately if t is in the past).
func (e *Engine) SleepUntil(t Time) {
	if t < e.now {
		t = e.now
	}
	e.sleepUntil("SleepUntil", t)
}

func (e *Engine) sleepUntil(op string, at Time) {
	self := e.mustCurrent(op)
	e.seq++
	e.timers.push(timer{at: at, seq: e.seq, p: self})
	e.yield(self)
}

// Yield lets other runnable processes execute at the current instant.
func (e *Engine) Yield() { e.Sleep(0) }

func (e *Engine) mustCurrent(op string) *proc {
	if e.current == nil {
		panic("sim: " + op + " called from outside a simulated process")
	}
	return e.current
}

// Run executes the simulation until every process has terminated. It must
// be called exactly once. A panic inside a simulated process — a deadlock
// included — unwinds that process and then surfaces here, in Run's
// caller, with no process current; processes still blocked at that point
// are abandoned.
func (e *Engine) Run() {
	if e.running {
		panic("sim: Run called twice")
	}
	e.running = true
	defer func() { e.current = nil }()
	for p := e.next(); p != nil; {
		e.current = p
		next, parked := p.resume()
		if !parked { // the process terminated
			e.alive--
			next = e.next()
			if next == nil && e.alive > 0 {
				panic(fmt.Sprintf("sim: deadlock: %d processes blocked with no pending timers", e.alive))
			}
		}
		p = next
	}
}

// Event is a broadcast synchronization point. Processes Wait on it; a Fire
// wakes every current waiter. Events are reusable: waiters that arrive
// after a Fire block until the next Fire.
type Event struct {
	e       *Engine
	waiters []*proc
}

// NewEvent creates an event bound to the engine.
func (e *Engine) NewEvent() *Event { return &Event{e: e} }

// Wait suspends the current process until the next Fire.
func (ev *Event) Wait() {
	self := ev.e.mustCurrent("Event.Wait")
	ev.waiters = append(ev.waiters, self)
	ev.e.yield(self)
}

// Fire wakes all processes currently waiting on the event. The waiters are
// appended to the ready queue in their arrival order; the caller keeps
// running.
func (ev *Event) Fire() {
	if len(ev.waiters) == 0 {
		return
	}
	ev.e.ready = append(ev.e.ready, ev.waiters...)
	clear(ev.waiters)
	ev.waiters = ev.waiters[:0] // keep the array for the next Wait
}

// WaiterCount reports how many processes are currently blocked on the event.
func (ev *Event) WaiterCount() int { return len(ev.waiters) }
