package rt

import "time"

// Pacing is how a scan thread spends modelled time on the real runtime.
//
// The OS cannot deliver the sleeps the model asks for: a scan charges
// ~61 µs of CPU per vector and waits ~120 µs per device read, and Go
// rounds either up to about a millisecond of timer. So a paced thread
// does not sleep per charge. It accumulates what it has been charged as
// a debt and sleeps only when the debt reaches paceQuantum, in one lump,
// then settles the debt by the time the sleep actually took: a late
// wake-up leaves credit that the next charges consume. Wall time slept
// therefore tracks the sum of modelled time to within a quantum, where
// a sleep per charge tracked the sum of (modelled + timer overshoot).
//
// A thread in debt is ahead of the wall clock: the time it has been
// charged and not slept has, in the model, already passed for it. Its
// modelled clock is the wall clock plus the debt (Lead), and that is the
// clock its device requests arrive on and its device waits are measured
// from, so a read issued while the thread still owes CPU time does not
// overlap the two, and back-to-back reads are not charged twice for the
// same stretch of device time.
//
// The debt lives on a Fork of the query's handle, one per scan thread:
// XChg parts share one query, and eight threads that each owe 61 µs owe
// 61 µs of wall time, not 488. The owner handle a scan already passes
// down through the buffer pool to the device carries the fork, so the
// CPU charge and the device wait of one thread share one debt. A nil or
// root handle, and any handle on the simulator, is not paced: a charge
// is exactly one Runtime.Sleep and a device wait one Runtime.SleepUntil.
const (
	// paceQuantum is the smallest lump a paced thread sleeps, except for
	// the residual Flush pays: at or above what the OS timer resolves.
	paceQuantum = time.Millisecond
	// paceCreditCap bounds the credit one late wake-up can leave, so a
	// stalled process does not buy a long run of free charges. A timer
	// that rounds a lump up to its next tick overshoots by up to a tick,
	// about a quantum; the cap leaves room for a slow box's few.
	paceCreditCap = 4 * paceQuantum
)

// Fork returns the pacing domain of one scan thread of query q: a handle
// that shares q's cancel signal, deadline and hooks, and owns its own
// debt. The thread that forks must be the one that charges and,
// when its plan closes, calls Flush. A nil q forks to nil.
func (q *QueryCtx) Fork() *QueryCtx {
	if q == nil {
		return nil
	}
	return &QueryCtx{lifecycle: q.lifecycle, paced: q.r.Real()}
}

func (q *QueryCtx) isPaced() bool { return q != nil && q.paced }

// Lead reports how far the thread that owns q is ahead of the wall
// clock: its unpaid debt, and never less than what is left of its last
// device wait, zero for a thread not paced. A device stamps a request's
// arrival with it. The second bound matters for a thread in credit: the
// credit paid for the wait, not the device, so the data was still not
// there before the wait's end, and a request that arrived earlier would
// queue behind the one it waited for and owe that transfer twice.
func (q *QueryCtx) Lead() Duration {
	if !q.isPaced() {
		return 0
	}
	return max(q.debt, Duration(q.ready-q.r.Now()), 0)
}

// Owe charges d of modelled time to the thread that owns q and returns
// how long the caller must sleep now, through Pay. On a paced handle that
// is zero until the debt reaches the quantum and the whole debt then; on
// any other handle it is d itself. The split lets the CPU model hold a
// core across the sleep.
func (q *QueryCtx) Owe(d Duration) Duration {
	if !q.isPaced() {
		return d
	}
	q.debt += d
	if q.debt < paceQuantum {
		return 0
	}
	return q.debt
}

// Pay sleeps a lump Owe returned and, on a paced handle, reduces the
// debt by the measured length of the sleep. Like SleepUntil it takes the
// runtime because a nil handle has none.
func (q *QueryCtx) Pay(r Runtime, lump Duration) {
	if !q.isPaced() {
		r.Sleep(lump)
		return
	}
	start := r.Now()
	r.Sleep(lump)
	q.debt -= Duration(r.Now() - start)
	if q.debt < -paceCreditCap {
		q.debt = -paceCreditCap
	}
}

// SleepUntil is the requester's side of a modelled device wait: the
// thread that owns q may not use the data before t. Unpaced, that is
// r.SleepUntil(t). Paced, t must come from a request that arrived on the
// thread's modelled clock (stamped with Lead), so it is never before
// that clock: reaching t replaces the thread's lead with what is left of
// the wait on the wall clock. Wall time the thread spent blocked in the
// device queue since the request thereby comes off its debt, and the
// thread may use the data up to a quantum before the wall clock reaches
// t, with the time still owed.
func (q *QueryCtx) SleepUntil(r Runtime, t Time) {
	if !q.isPaced() {
		r.SleepUntil(t)
		return
	}
	wait := max(Duration(t-r.Now()), 0)
	lump := q.Owe(wait - q.Lead())
	q.ready = t
	if lump > 0 {
		q.Pay(r, lump)
	}
}

// Flush pays the residual debt of a thread whose plan is closing, so a
// query is never charged less wall time than it was charged modelled
// time. A cancelled query's residual is dropped: nobody waits for it.
func (q *QueryCtx) Flush() {
	if !q.isPaced() || q.debt <= 0 || q.Cancelled() {
		return
	}
	q.Pay(q.r, q.debt)
}
