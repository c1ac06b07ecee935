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
// The thread's own real work pays its debt too. Modelled CPU time is
// the time the thread's work takes in the model; the real vector work
// the thread does between two charges is wall time that has passed, so
// sleeping the full charge on top of it would charge that CPU twice.
// Every pacing call therefore first settles: the wall time since the
// thread's last pacing call comes off the debt, whether the thread owes
// or is in credit, down to a credit of paceCreditCap (a credit already
// beyond the cap stays where it is). Work done in credit thus banks
// more: a thread that woke late and then worked has had both stretches
// of wall time, and the charges for that work spend them, so time that
// really passed is charged once. Wall time the thread spends blocked is
// not work, and buys no credit. The wait for a modelled core in CPU.Work
// is not counted at all: Pay starts its own count after the core is
// granted, so a thread never sleeps less while holding a core because it
// queued for one. A wait outside pacing — a page another thread is
// reading, a frame to free, a device's dispatcher, a chunk the ABM
// loads, the ABM loader's next work signal — goes through Wait, which
// takes the blocked time off a positive debt only: the thread's modelled
// clock after it is the later of where it was and the wake-up, and a
// thread in credit wakes with the credit it had.
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
	// paceCreditCap bounds the credit late wake-ups and work done in
	// credit can leave, so a stalled process does not buy a long run of
	// free charges. A timer that rounds a lump up to its next tick
	// overshoots by up to a tick, about a quantum; the cap leaves room
	// for a slow box's few.
	paceCreditCap = 4 * paceQuantum
)

// Fork returns the pacing domain of one scan thread of query q: a handle
// that shares q's cancel signal, deadline and hooks, and owns its own
// debt. The thread that forks must be the one that charges and,
// when its plan closes, calls Flush: its work counts from the fork. A nil
// q forks to nil.
func (q *QueryCtx) Fork() *QueryCtx {
	if q == nil {
		return nil
	}
	return &QueryCtx{lifecycle: q.lifecycle, paced: q.r.Real(), mark: q.r.Now()}
}

func (q *QueryCtx) isPaced() bool { return q != nil && q.paced }

// owed is the debt net of the wall time the thread has spent since its
// last pacing call: real work pays the debt down and, in credit, banks
// more, down to the cap; a credit already beyond the cap is kept.
func (q *QueryCtx) owed(now Time) Duration {
	return min(q.debt, max(q.debt-Duration(now-q.mark), -paceCreditCap))
}

// settle nets the wall time since the last pacing call against the debt
// and starts the next stretch now.
func (q *QueryCtx) settle() {
	now := q.r.Now()
	q.debt, q.mark = q.owed(now), now
}

// Wait blocks the thread that owns q on w, a wait outside pacing (see
// the file comment). The work done before it is settled as at any
// pacing call; the blocked time then comes off a positive debt, down to
// zero, and never becomes credit.
func (q *QueryCtx) Wait(w Waiter) {
	if !q.isPaced() {
		w.Wait()
		return
	}
	q.settle()
	w.Wait()
	now := q.r.Now()
	if q.debt > 0 {
		q.debt = max(q.debt-Duration(now-q.mark), 0)
	}
	q.mark = now
}

// Lead reports how far the thread that owns q is ahead of the wall
// clock: its unpaid debt net of the work it has done since its last
// pacing call, and never less than what is left of its last device wait,
// zero for a thread not paced. A device stamps a request's
// arrival with it. The second bound matters for a thread in credit: the
// credit paid for the wait, not the device, so the data was still not
// there before the wait's end, and a request that arrived earlier would
// queue behind the one it waited for and owe that transfer twice.
func (q *QueryCtx) Lead() Duration {
	if !q.isPaced() {
		return 0
	}
	now := q.r.Now()
	return max(q.owed(now), Duration(q.ready-now), 0)
}

// Owe charges d of modelled time to the thread that owns q and returns
// how long the caller must sleep now, through Pay. On a paced handle that
// is zero until the debt, net of the work done since the last pacing
// call, reaches the quantum, and the whole debt then; on any other handle
// it is d itself. The split lets the CPU model hold a core across the
// sleep.
func (q *QueryCtx) Owe(d Duration) Duration {
	if !q.isPaced() {
		return d
	}
	q.settle()
	q.debt += d
	if q.debt < paceQuantum {
		return 0
	}
	return q.debt
}

// Pay sleeps a lump Owe returned and, on a paced handle, reduces the
// debt by the measured length of the sleep. The wall time since Owe is
// not netted: the caller spent it queued for a core, not working. Like
// SleepUntil it takes the runtime because a nil handle has none.
func (q *QueryCtx) Pay(r Runtime, lump Duration) {
	if !q.isPaced() {
		r.Sleep(lump)
		return
	}
	start := r.Now()
	r.Sleep(lump)
	q.mark = r.Now()
	q.debt -= Duration(q.mark - start)
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
// t, with the time still owed, or, in credit, up to its credit before t,
// the credit paying for the wait.
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

// Flush pays the residual debt of a thread whose plan is closing, net of
// the work done since its last pacing call, and waits out what is left of
// its last device wait, so a query never takes less wall time than it was
// charged modelled time and never ends before its last read does: Lead is
// zero after it. A cancelled query's residual is dropped: nobody waits for
// it.
func (q *QueryCtx) Flush() {
	if !q.isPaced() {
		return
	}
	q.settle()
	lump := max(q.debt, Duration(q.ready-q.mark))
	if lump <= 0 || q.Cancelled() {
		return
	}
	q.Pay(q.r, lump)
}
