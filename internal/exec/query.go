package exec

import "repro/internal/rt"

// QueryCtx is the per-query lifecycle handle (see rt.QueryCtx): a
// runtime-agnostic cancel signal with an optional deadline and a
// cancellation cause, threaded from admission down to the device queue.
// Operators check it at vector boundaries and at every blocking wait, so
// a cancelled query stops consuming CPU, buffer memory and disk turns
// promptly instead of running to completion.
type QueryCtx = rt.QueryCtx

// Cancellation causes, re-exported for plan-building callers.
const (
	CauseNone             = rt.CauseNone
	CauseClientCancel     = rt.CauseClientCancel
	CauseDeadlineExceeded = rt.CauseDeadlineExceeded
	CauseAdmissionTimeout = rt.CauseAdmissionTimeout
)

// NewQueryCtx returns a live lifecycle handle on the runtime's clock.
func NewQueryCtx(r rt.Runtime) *QueryCtx { return rt.NewQueryCtx(r) }

// WithQuery returns a shallow copy of the context bound to the given
// query lifecycle. The engine wiring (pool, ABM, CPU) is shared; only
// the lifecycle differs, so one environment serves many concurrent
// queries each with its own cancel scope. The copy shares c's free list
// of vector buffers.
func (c *Ctx) WithQuery(q *QueryCtx) *Ctx {
	c.freeList()
	cp := *c
	cp.Query = q
	return &cp
}
