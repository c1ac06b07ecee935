package rt

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// CancelCause identifies why a query's lifecycle ended early. The zero
// value means the query is live.
type CancelCause int32

const (
	// CauseNone marks a live query.
	CauseNone CancelCause = iota
	// CauseClientCancel: the client explicitly abandoned the query
	// (disconnect, user cancel).
	CauseClientCancel
	// CauseDeadlineExceeded: the query's deadline passed while it was
	// executing.
	CauseDeadlineExceeded
	// CauseAdmissionTimeout: the deadline passed while the query was
	// still waiting in the admission queue — it never ran at all.
	CauseAdmissionTimeout
)

func (c CancelCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseClientCancel:
		return "client-cancel"
	case CauseDeadlineExceeded:
		return "deadline-exceeded"
	case CauseAdmissionTimeout:
		return "admission-timeout"
	}
	return fmt.Sprintf("CancelCause(%d)", int32(c))
}

// ErrCancelled is the sentinel wait points return when they are woken by
// cancellation instead of the condition they were parked on. Wrap or
// compare with errors.Is.
var ErrCancelled = errors.New("rt: query cancelled")

// QueryCtx is the per-query lifecycle handle threaded from admission down
// to the device queue: a runtime-agnostic cancel signal with an optional
// deadline on the runtime clock and a cancellation cause. All methods are
// safe on a nil receiver (a nil *QueryCtx is a query that can never be
// cancelled), so layers thread it unconditionally and the disabled path
// stays branch-free.
//
// Cancellation is level-triggered and first-cause-wins: the first
// Cancel(cause) sets the cause, every later Cancel is a no-op. The
// deadline is checked lazily — Cancelled() self-cancels with
// CauseDeadlineExceeded once the runtime clock passes it, so no timer
// process is needed (and the deterministic simulator schedules no extra
// events for queries that finish in time).
//
// A QueryCtx is also the pacing domain of modelled time on the real
// runtime (see pace.go): the handle a query is admitted with is the root,
// shared by every thread of the plan and never paced; each scan thread
// takes its own Fork, which shares the root's lifecycle and carries that
// one thread's modelled clock.
type QueryCtx struct {
	*lifecycle

	// Pacing state of a Fork. Touched only by the scan thread that owns
	// the fork, so it needs no synchronization.
	paced bool
	clock Time // the thread's modelled clock, before the credit cap (see at)
	ready Time // completion of the last device wait (see Lead)
}

// lifecycle is the cancel/deadline state a root QueryCtx and all its
// forks share.
type lifecycle struct {
	r     Runtime
	cause atomic.Int32

	mu          sync.Mutex
	deadline    Time
	hasDeadline bool
	hooks       []cancelHook
	nextHook    int
}

type cancelHook struct {
	id int
	fn func()
}

// NewQueryCtx returns a live QueryCtx on the given runtime's clock.
func NewQueryCtx(r Runtime) *QueryCtx {
	return &QueryCtx{lifecycle: &lifecycle{r: r}}
}

// SetDeadline arms the deadline. Call before the query is shared with
// other processes.
func (q *QueryCtx) SetDeadline(t Time) {
	q.mu.Lock()
	q.deadline, q.hasDeadline = t, true
	q.mu.Unlock()
}

// Deadline reports the armed deadline, if any.
func (q *QueryCtx) Deadline() (Time, bool) {
	if q == nil {
		return 0, false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.deadline, q.hasDeadline
}

// Expired reports whether the deadline has passed at the given instant,
// without self-cancelling. The admission scheduler uses this to drop
// queued queries with CauseAdmissionTimeout (they never ran) rather than
// the executing-query CauseDeadlineExceeded that lazy checks apply.
func (q *QueryCtx) Expired(now Time) bool {
	if q == nil {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.hasDeadline && now >= q.deadline
}

// Cancel terminates the query with the given cause. The first cancel
// wins: it runs every registered OnCancel hook (in registration order,
// for deterministic simulation) and returns true; later calls are no-ops
// returning false.
func (q *QueryCtx) Cancel(cause CancelCause) bool {
	if q == nil || cause == CauseNone {
		return false
	}
	if !q.cause.CompareAndSwap(int32(CauseNone), int32(cause)) {
		return false
	}
	q.mu.Lock()
	hooks := q.hooks
	q.hooks = nil
	q.mu.Unlock()
	for _, h := range hooks {
		h.fn()
	}
	return true
}

// Cancelled reports whether the query is dead, lazily self-cancelling
// with CauseDeadlineExceeded once the runtime clock passes the deadline.
func (q *QueryCtx) Cancelled() bool {
	if q == nil {
		return false
	}
	if q.cause.Load() != int32(CauseNone) {
		return true
	}
	q.mu.Lock()
	hasDL, dl := q.hasDeadline, q.deadline
	q.mu.Unlock()
	if hasDL && q.r.Now() >= dl {
		q.Cancel(CauseDeadlineExceeded)
		return true
	}
	return false
}

// Cause returns the cancellation cause (CauseNone while live). It does
// not perform the lazy deadline check; call Cancelled first when the
// deadline matters.
func (q *QueryCtx) Cause() CancelCause {
	if q == nil {
		return CauseNone
	}
	return CancelCause(q.cause.Load())
}

// Err returns nil while live, or ErrCancelled (wrapped with the cause)
// once cancelled.
func (q *QueryCtx) Err() error {
	if q == nil {
		return nil
	}
	c := CancelCause(q.cause.Load())
	if c == CauseNone {
		return nil
	}
	return fmt.Errorf("%w (%s)", ErrCancelled, c)
}

// OnCancel registers fn to run when the query is cancelled and returns a
// remove function deregistering it. If the query is already cancelled,
// fn runs synchronously before OnCancel returns. This is the universal
// cancel-wake mechanism: blocking wait points register a hook that fires
// the Event they park on, park, then deregister on wake.
func (q *QueryCtx) OnCancel(fn func()) (remove func()) {
	if q == nil {
		return func() {}
	}
	q.mu.Lock()
	if q.cause.Load() != int32(CauseNone) {
		q.mu.Unlock()
		fn()
		return func() {}
	}
	id := q.nextHook
	q.nextHook++
	q.hooks = append(q.hooks, cancelHook{id: id, fn: fn})
	q.mu.Unlock()
	return func() {
		q.mu.Lock()
		for i, h := range q.hooks {
			if h.id == id {
				q.hooks = append(q.hooks[:i], q.hooks[i+1:]...)
				break
			}
		}
		q.mu.Unlock()
	}
}
