package rt

import "time"

// Pacing is how a scan thread spends modelled time on the real runtime.
//
// A scan charges ~61 µs of CPU per vector and waits ~120 µs per device
// read. The real runtime sleeps either to within about a tenth of a
// millisecond (Runtime.Sleep parks on a timerfd), but every sleep still
// costs a park, a timer arm and a wake-up, and the wake-up is late by the
// host's latency. So a paced thread does not sleep per charge. It keeps a
// modelled clock, the instant its charges have taken it to, and sleeps
// only when that clock is paceQuantum or more ahead of the wall clock,
// in one lump, up to the clock. A late wake-up leaves the wall clock past
// the modelled one, and the next charges advance the modelled clock
// through that stretch before the thread sleeps again. Wall time slept
// therefore tracks the sum of modelled time to within a quantum, where a
// sleep per charge tracked the sum of (modelled + wake-up latency).
//
// A clock behind the wall clock is credit, and the credit is capped:
// every pacing call reads the clock at wall time now as
// at(now) = max(clock, now − paceCreditCap). The thread's own real work
// moves it that way too. Modelled CPU time is the time the thread's work
// takes in the model; the real vector work the thread does between two
// charges is wall time that has passed, so sleeping the full charge on
// top of it would charge that CPU twice. A charge advances the clock
// from at(now), so the work since the last pacing call has paid for the
// time owed and, in credit, banks more, down to the cap: a thread that
// woke late and then worked has had both stretches of wall time, and the
// charges for that work spend them, so time that really passed is
// charged once. Wall time the thread spends blocked is not work, and
// buys no credit. The wait for a modelled core in CPU.Work is not
// counted at all: Pay sets the clock to the lump's start plus the lump,
// so a thread never sleeps less while holding a core because it queued
// for one. A wait outside pacing — a page another thread is reading, a
// frame to free, a device's dispatcher, a chunk the ABM loads, the ABM
// loader's next work signal — goes through Wait: the clock after it is
// the later of where it was and the wake-up, and a thread in credit
// wakes with the credit it had.
//
// A clock ahead of the wall clock is time that, in the model, has
// already passed for the thread. Its device requests arrive on that
// clock (Lead), and a device wait moves the clock to the read's end,
// less the credit that paid for the wait, so a read issued while the
// thread still owes CPU time does not overlap the two, and back-to-back
// reads are not charged twice for the same stretch of device time.
//
// The clock lives on a Fork of the query's handle, one per scan thread:
// XChg parts share one query, and eight threads that each owe 61 µs owe
// 61 µs of wall time, not 488. The owner handle a scan already passes
// down through the buffer pool to the device carries the fork, so the
// CPU charge and the device wait of one thread move one clock. A nil or
// root handle, and any handle on the simulator, is not paced: a charge
// is exactly one Runtime.Sleep and a device wait one Runtime.SleepUntil.
const (
	// paceQuantum is the smallest lump a paced thread sleeps, except for
	// the residual Flush pays. It saves sleeps, not timer ticks: a scan
	// thread sleeps once per ~16 vectors' charges instead of once each.
	paceQuantum = time.Millisecond
	// paceCreditCap bounds how far the clock may fall behind the wall
	// clock, so a stalled process does not buy a long run of free
	// charges. A lump wakes late by the host's wake-up latency, about a
	// tenth of a millisecond on an idle box; the cap leaves room for a
	// busy box, where a woken thread also waits for a CPU.
	paceCreditCap = 4 * paceQuantum
)

// Fork returns the pacing domain of one scan thread of query q: a handle
// that shares q's cancel signal, deadline and hooks, and owns its own
// modelled clock. The thread that forks must be the one that charges
// and, when its plan closes, calls Flush: its clock starts at the fork. A
// nil q forks to nil.
func (q *QueryCtx) Fork() *QueryCtx {
	if q == nil {
		return nil
	}
	return &QueryCtx{lifecycle: q.lifecycle, paced: q.r.Real(), clock: q.r.Now()}
}

func (q *QueryCtx) isPaced() bool { return q != nil && q.paced }

// at is the thread's modelled clock at wall time now: where its charges
// have taken it, but never more than the credit cap behind now.
func (q *QueryCtx) at(now Time) Time { return max(q.clock, now-Time(paceCreditCap)) }

// lump is how far the clock is ahead of now, if that is at least the
// quantum, and zero otherwise: what the thread must sleep now.
func (q *QueryCtx) lump(now Time) Duration {
	if lead := Duration(q.clock - now); lead >= paceQuantum {
		return lead
	}
	return 0
}

// Wait blocks the thread that owns q on w, a wait outside pacing (see
// the file comment). Blocked time is not work: a clock ahead of the wall
// clock moves to the wake-up if the wait outlasts it, and a clock in
// credit moves with the wall clock, keeping the credit it had.
func (q *QueryCtx) Wait(w Waiter) {
	if !q.isPaced() {
		w.Wait()
		return
	}
	now := q.r.Now()
	c := q.at(now)
	w.Wait()
	q.clock = c + max(q.r.Now()-max(c, now), 0)
}

// Lead reports how far the thread that owns q is ahead of the wall
// clock: its modelled clock, never before the end of its last device
// wait, less the wall clock; zero when both are behind it, and for a
// thread not paced. A device stamps a request's arrival with it. The
// device wait's end matters for a thread in credit: the credit paid for
// the wait, not the device, so the data was still not there before the
// wait's end, and a request that arrived earlier would queue behind the
// one it waited for and owe that transfer twice.
func (q *QueryCtx) Lead() Duration {
	if !q.isPaced() {
		return 0
	}
	now := q.r.Now()
	return Duration(max(q.clock, q.ready, now) - now)
}

// Owe charges d of modelled time to the thread that owns q and returns
// how long the caller must sleep now, through Pay. On a paced handle it
// advances the clock by d and returns zero until the clock is a quantum
// ahead of the wall clock, and the whole lead then; on any other handle
// it is d itself. The split lets the CPU model hold a core across the
// sleep.
func (q *QueryCtx) Owe(d Duration) Duration {
	if !q.isPaced() {
		return d
	}
	now := q.r.Now()
	q.clock = q.at(now) + Time(d)
	return q.lump(now)
}

// Pay sleeps a lump Owe returned and, on a paced handle, sets the clock
// to the sleep's start plus the lump: the wall time since Owe is not
// work, since the caller spent it queued for a core, and a late wake-up
// is credit at the next call. Like SleepUntil it takes the runtime
// because a nil handle has none.
func (q *QueryCtx) Pay(r Runtime, lump Duration) {
	if q.isPaced() {
		q.clock = r.Now() + Time(lump)
	}
	r.Sleep(lump)
}

// SleepUntil is the requester's side of a modelled device wait: the
// thread that owns q may not use the data before t. Unpaced, that is
// r.SleepUntil(t). Paced, t must come from a request that arrived on the
// thread's modelled clock (stamped with Lead), and the wait moves the
// clock to t, or to the wall clock for a wait already over, less the
// credit that paid for the wait: how far the clock was behind the
// request's arrival. Wall time the thread spent blocked in the device
// queue since the request thereby passes on its clock, and the thread
// may use the data up to a quantum before the wall clock reaches t, with
// the time still owed, or, in credit, up to its credit before t.
func (q *QueryCtx) SleepUntil(r Runtime, t Time) {
	if !q.isPaced() {
		r.SleepUntil(t)
		return
	}
	now := r.Now()
	c := q.at(now)
	q.clock = max(t, now) - (max(c, q.ready, now) - c)
	q.ready = t
	if lump := q.lump(now); lump > 0 {
		q.Pay(r, lump)
	}
}

// Flush sleeps out the lead of a thread whose plan is closing: the rest
// of its modelled clock and of its last device wait, so a query never
// takes less wall time than it was charged modelled time and never ends
// before its last read does: Lead is zero after it. A cancelled query's
// residual is dropped: nobody waits for it.
func (q *QueryCtx) Flush() {
	if lump := q.Lead(); lump > 0 && !q.Cancelled() {
		q.Pay(q.r, lump)
	}
}
