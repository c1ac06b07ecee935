package rt

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// The pacing contract, counted rather than timed wherever it can be: the
// tests wrap a Runtime and count or log the timer calls that reach it.

// recRT records every Sleep and SleepUntil that reaches the wrapped
// runtime, with the clock at the call.
type recRT struct {
	Runtime
	sleeps, untils int
	log            []string
}

func (r *recRT) Sleep(d Duration) {
	r.sleeps++
	r.log = append(r.log, fmt.Sprintf("%d Sleep %d", r.Now(), d))
	r.Runtime.Sleep(d)
}

func (r *recRT) SleepUntil(t Time) {
	r.untils++
	r.log = append(r.log, fmt.Sprintf("%d SleepUntil %d", r.Now(), t))
	r.Runtime.SleepUntil(t)
}

// steppedRT is a real-mode runtime on a hand-driven clock: Sleep(d)
// advances the clock by d plus the next overshoot of a fixed cycle, so a
// test decides what the OS timer does. It logs every Sleep.
type steppedRT struct {
	Runtime // nil: only the clock and Sleep are implemented
	now     Time
	over    []Duration
	sleeps  int
	slept   Duration
	log     []sleepCall
}

// sleepCall is one Sleep: when it was called and what it asked for.
type sleepCall struct {
	at Time
	d  Duration
}

func (r *steppedRT) Real() bool { return true }
func (r *steppedRT) Now() Time  { return r.now }
func (r *steppedRT) Sleep(d Duration) {
	r.log = append(r.log, sleepCall{r.now, d})
	took := d + r.over[r.sleeps%len(r.over)]
	r.sleeps++
	r.slept += took
	r.now += Time(took)
}

// ahead is how far q's modelled clock, as a pacing call would read it
// now, is ahead of the wall clock: negative in credit.
func ahead(q *QueryCtx) Duration {
	now := q.r.Now()
	return Duration(q.at(now) - now)
}

// setAhead puts q's clock d ahead of the wall clock, behind it for a
// negative d.
func setAhead(q *QueryCtx, d Duration) { q.clock = q.r.Now() + Time(d) }

// charge is what a charge site does: owe, and pay when told to.
func charge(r Runtime, q *QueryCtx, d Duration) {
	if lump := q.Owe(d); lump > 0 {
		q.Pay(r, lump)
	}
}

// TestPaceLumpsRealSleeps: a thousand 61 µs charges — a scan's CPU charge
// per vector — reach the OS timer at most once per quantum charged, and
// the wall time they take tracks the 61 ms charged. A sleep per charge
// takes the timer's overshoot a thousand times (about 17× the charge on
// the box this was written on).
func TestPaceLumpsRealSleeps(t *testing.T) {
	const n, d = 1000, 61 * time.Microsecond
	r := &recRT{Runtime: NewReal()}
	q := NewQueryCtx(r).Fork()
	start := time.Now()
	for i := 0; i < n; i++ {
		charge(r, q, d)
	}
	q.Flush()
	wall := time.Since(start)
	if most := int(n*d/paceQuantum) + 1; r.sleeps > most {
		t.Errorf("%d charges of %v reached the timer %d times, want <= %d", n, d, r.sleeps, most)
	}
	if wall < n*d {
		t.Errorf("charged %v but only %v passed: under-charged", n*d, wall)
	}
	if wall > 2*n*d {
		t.Errorf("charged %v and %v passed, want <= %v", n*d, wall, 2*n*d)
	}
	if ahead(q) > 0 {
		t.Errorf("clock %v ahead after Flush", ahead(q))
	}
}

// TestPaceDebtBounds drives a mix of charge sizes against a timer that
// overshoots by a cycle of amounts, one of them a 100 ms stall, and
// checks the conservation bounds after every charge: the clock less
// than a quantum ahead of the wall clock, credit at most the cap, and
// time slept never more than a quantum behind time charged. After Flush
// nothing is owed.
func TestPaceDebtBounds(t *testing.T) {
	r := &steppedRT{over: []Duration{
		80 * time.Microsecond, 1100 * time.Microsecond, 0, 100 * time.Millisecond, 300 * time.Microsecond,
	}}
	q := NewQueryCtx(r).Fork()
	charges := []Duration{61 * time.Microsecond, 120 * time.Microsecond, 7 * time.Microsecond, 2500 * time.Microsecond, 999 * time.Microsecond}
	var charged Duration
	for i := 0; i < 5000; i++ {
		d := charges[i%len(charges)]
		charge(r, q, d)
		charged += d
		if ahead(q) >= paceQuantum {
			t.Fatalf("charge %d: clock %v ahead, not below the quantum", i, ahead(q))
		}
		if ahead(q) < -paceCreditCap {
			t.Fatalf("charge %d: credit %v above the cap %v", i, -ahead(q), paceCreditCap)
		}
		if behind := charged - r.slept; behind >= paceQuantum {
			t.Fatalf("charge %d: slept %v of %v charged, %v behind", i, r.slept, charged, behind)
		}
		if q.Lead() != max(ahead(q), 0) {
			t.Fatalf("charge %d: lead %v with the clock %v ahead", i, q.Lead(), ahead(q))
		}
	}
	q.Flush()
	if ahead(q) > 0 || r.slept < charged {
		t.Fatalf("after Flush: clock %v ahead, slept %v of %v charged", ahead(q), r.slept, charged)
	}
	// The stall was forgiven down to the cap, not banked: had its 100 ms
	// all become credit, hundreds of the following charges would have
	// been free and far fewer lumps slept.
	if least := int(charged/(paceQuantum+paceCreditCap)) / 2; r.sleeps < least {
		t.Fatalf("only %d lumps for %v charged: a stall bought free charges", r.sleeps, charged)
	}
}

// TestPaceCreditTracksOvershoot: with a timer that always wakes 400 µs
// late, the lateness of one lump is taken off the next, so the time
// slept exceeds the time charged by one overshoot, not one per lump.
func TestPaceCreditTracksOvershoot(t *testing.T) {
	const over = 400 * time.Microsecond
	r := &steppedRT{over: []Duration{over}}
	q := NewQueryCtx(r).Fork()
	var charged Duration
	for i := 0; i < 10000; i++ {
		charge(r, q, 61*time.Microsecond)
		charged += 61 * time.Microsecond
	}
	q.Flush()
	if extra := r.slept - charged; extra < 0 || extra > over {
		t.Fatalf("slept %v for %v charged: %v extra, want within one overshoot %v", r.slept, charged, extra, over)
	}
}

// TestPaceWorkPaysDebt: wall time that passes between pacing calls is
// the thread's real work, and it pays what the thread owes and, in
// credit, banks more, down to the cap; a late timer wake-up banks credit
// the same way, and a wait for a core pays nothing. The clock moves only
// when the test moves it (work) or the thread sleeps.
func TestPaceWorkPaysDebt(t *testing.T) {
	const us = time.Microsecond
	r := &steppedRT{over: []Duration{400 * us, 10 * time.Millisecond}}
	q := NewQueryCtx(r).Fork()
	charge(r, q, 500*us)
	r.now += Time(300 * us)
	if lead := q.Lead(); lead != 200*us {
		t.Fatalf("lead %v after 300µs of work on a 500µs charge, want 200µs", lead)
	}
	r.now += Time(time.Millisecond)
	if lead := q.Lead(); lead != 0 {
		t.Fatalf("lead %v after work past the debt, want 0", lead)
	}
	// The 800 µs of work beyond the debt is credit the next charge spends.
	charge(r, q, 61*us)
	if ahead(q) != -739*us || r.sleeps != 0 {
		t.Fatalf("clock %v ahead after %d sleeps, want -739µs and none: work beyond the debt did not bank credit", ahead(q), r.sleeps)
	}
	// A lump that wakes 400 µs late leaves 400 µs of credit, and 700 µs
	// of work done in credit adds to it.
	charge(r, q, 1739*us)
	if ahead(q) != -400*us || r.sleeps != 1 {
		t.Fatalf("clock %v ahead after %d sleeps, want -400µs after one", ahead(q), r.sleeps)
	}
	r.now += Time(700 * us)
	charge(r, q, 0)
	if ahead(q) != -1100*us {
		t.Fatalf("clock %v ahead after 700µs of work on 400µs of credit, want -1.1ms", ahead(q))
	}
	// A 10 ms stall banks only the cap, and work at the cap banks no more.
	charge(r, q, 2100*us)
	if ahead(q) != -paceCreditCap || r.sleeps != 2 {
		t.Fatalf("clock %v ahead after %d sleeps and a 10ms overshoot, want the cap %v after two", ahead(q), r.sleeps, -paceCreditCap)
	}
	r.now += Time(700 * us)
	charge(r, q, 0)
	if ahead(q) != -paceCreditCap {
		t.Fatalf("clock %v ahead after work at the cap, want the cap %v", ahead(q), -paceCreditCap)
	}

	// The wait for a core between Owe and Pay is not work: the lump is
	// paid by the sleep alone.
	r = &steppedRT{over: []Duration{0}}
	q = NewQueryCtx(r).Fork()
	lump := q.Owe(1200 * us)
	r.now += Time(3 * time.Millisecond)
	q.Pay(r, lump)
	if ahead(q) != 0 {
		t.Fatalf("clock %v ahead after a 1.2ms lump paid behind a 3ms core wait, want 0", ahead(q))
	}
	// Flush sleeps only what the work since the last call left owed.
	charge(r, q, 500*us)
	r.now += Time(300 * us)
	q.Flush()
	if r.slept != 1200*us+200*us || ahead(q) != 0 {
		t.Fatalf("Flush after 300µs of work on 500µs owed: slept %v in all, clock %v ahead; want 200µs at close", r.slept-1200*us, ahead(q))
	}
}

// TestPaceDeviceWaitOnModelledClock: a thread whose clock is ahead of
// the wall clock has its device requests arrive there, so reaching a
// completion time replaces the lead — two back-to-back reads
// that end 120 µs and 240 µs from now owe 240 µs together, not 360.
func TestPaceDeviceWaitOnModelledClock(t *testing.T) {
	r := &steppedRT{over: []Duration{0}}
	q := NewQueryCtx(r).Fork()
	q.SleepUntil(r, r.Now()+Time(120*time.Microsecond))
	q.SleepUntil(r, r.Now()+Time(240*time.Microsecond))
	if ahead(q) != 240*time.Microsecond || r.sleeps != 0 {
		t.Fatalf("clock %v ahead after %d sleeps, want 240µs and none", ahead(q), r.sleeps)
	}
	// Wall time the thread spends blocked in the device queue comes off
	// its lead: a third read granted 150 µs later, ending 60 µs after
	// that, leaves 60 µs owed — and one that ended while the thread was
	// still blocked leaves nothing.
	r.now += Time(150 * time.Microsecond)
	q.SleepUntil(r, r.Now()+Time(60*time.Microsecond))
	if ahead(q) != 60*time.Microsecond {
		t.Fatalf("clock %v ahead after blocking through most of the wait, want 60µs", ahead(q))
	}
	q.SleepUntil(r, r.Now()-1)
	if ahead(q) != 0 || r.sleeps != 0 {
		t.Fatalf("clock %v ahead after %d sleeps for a wait already over, want none", ahead(q), r.sleeps)
	}
	// A thread in credit is behind the wall clock; the wait is measured
	// from the wall clock and the credit pays for part of it.
	setAhead(q, -50*time.Microsecond)
	q.SleepUntil(r, r.Now()+Time(120*time.Microsecond))
	if ahead(q) != 70*time.Microsecond {
		t.Fatalf("clock %v ahead after a 120µs wait on 50µs of credit, want 70µs", ahead(q))
	}
}

// TestPaceCreditDeviceWaitsOwedOnce: credit pays for a device wait, but
// the data still arrives at the wait's end, so the thread's next request
// arrives there and not on the wall clock. Two back-to-back 120 µs reads
// on 500 µs of credit owe 240 µs together; stamped on the wall clock, the
// second would queue behind the first and owe its transfer again.
func TestPaceCreditDeviceWaitsOwedOnce(t *testing.T) {
	r := &steppedRT{over: []Duration{0}}
	q := NewQueryCtx(r).Fork()
	setAhead(q, -500*time.Microsecond)
	q.SleepUntil(r, r.Now()+Time(120*time.Microsecond))
	if lead := q.Lead(); lead != 120*time.Microsecond {
		t.Fatalf("lead %v after a 120µs wait paid from credit, want 120µs", lead)
	}
	q.SleepUntil(r, r.Now()+Time(q.Lead())+Time(120*time.Microsecond))
	if ahead(q) != -260*time.Microsecond || r.sleeps != 0 {
		t.Fatalf("clock %v ahead after %d sleeps, want -260µs and none", ahead(q), r.sleeps)
	}
}

// TestPaceWorkInCreditBanksCredit: a lump that wakes 400 µs late leaves
// 400 µs of credit, and 700 µs of work done after it has passed on the
// wall clock too, so the thread holds 1.1 ms that its next charges spend.
// Netting work against a positive debt only would leave the 400 µs and
// charge those 700 µs again when the work's own CPU charge comes.
func TestPaceWorkInCreditBanksCredit(t *testing.T) {
	r := &steppedRT{over: []Duration{400 * time.Microsecond}}
	q := NewQueryCtx(r).Fork()
	charge(r, q, time.Millisecond)
	r.now += Time(700 * time.Microsecond)
	charge(r, q, 0)
	if ahead(q) != -1100*time.Microsecond || r.sleeps != 1 {
		t.Fatalf("clock %v ahead after %d sleeps, want -1.1ms after one", ahead(q), r.sleeps)
	}
}

// waitFunc is a Waiter that runs a function: a test moves its clock in
// it, as if the thread had been parked that long.
type waitFunc func()

func (w waitFunc) Wait() { w() }

// TestPaceBlockedTimeIsNotWork: the time a thread spends parked in Wait
// moves its clock only past where it was and never becomes credit, so a
// charge after the wait is still slept; the work done before the wait
// banks credit as at any pacing call.
func TestPaceBlockedTimeIsNotWork(t *testing.T) {
	const us = time.Microsecond
	for _, tc := range []struct {
		name                       string
		ahead, work, blocked, want Duration
	}{
		{"a clock further ahead than the wait stays where it was", 3000 * us, 0, 2000 * us, 1000 * us},
		{"a clock less far ahead than the wait moves to the wake-up, not into credit", 500 * us, 0, 2000 * us, 0},
		{"credit is kept and not added to", -300 * us, 0, 2000 * us, -300 * us},
		{"work before the wait still banks credit", -400 * us, 700 * us, 2000 * us, -1100 * us},
	} {
		r := &steppedRT{over: []Duration{0}}
		q := NewQueryCtx(r).Fork()
		setAhead(q, tc.ahead)
		r.now += Time(tc.work)
		q.Wait(waitFunc(func() { r.now += Time(tc.blocked) }))
		if ahead(q) != tc.want || q.Lead() != max(tc.want, 0) {
			t.Errorf("%s: clock %v ahead, lead %v after the wait, want %v", tc.name, ahead(q), q.Lead(), tc.want)
		}
		// A 1 ms charge right after the wait owes it from where the clock is.
		if lump, want := q.Owe(time.Millisecond), tc.want+time.Millisecond; (want >= paceQuantum) != (lump == want) || (want < paceQuantum && lump != 0) {
			t.Errorf("%s: a 1ms charge after the wait sleeps %v, clock %v ahead", tc.name, lump, ahead(q))
		}
	}
}

// TestPaceFlushWaitsOutDeviceWait: credit pays for a 300 µs device wait,
// but the data is there only at the wait's end, so a thread that closes
// right after it sleeps until then: Flush leaves no lead.
func TestPaceFlushWaitsOutDeviceWait(t *testing.T) {
	r := &steppedRT{over: []Duration{0}}
	q := NewQueryCtx(r).Fork()
	setAhead(q, -500*time.Microsecond)
	end := r.Now() + Time(300*time.Microsecond)
	q.SleepUntil(r, end)
	if r.sleeps != 0 {
		t.Fatalf("%d sleeps for a wait the credit paid, want none", r.sleeps)
	}
	q.Flush()
	if lead := q.Lead(); lead != 0 || r.Now() != end {
		t.Fatalf("Flush ended at %v with lead %v, want at the wait's end %v with none", r.Now(), lead, end)
	}
}

// TestPaceSimPassthrough: on the simulator a fork changes nothing — the
// sequence of (clock, timer call) pairs of a thread that charges, waits
// for a device and flushes is the one a thread with no handle makes.
func TestPaceSimPassthrough(t *testing.T) {
	script := func(fork bool) []string {
		r := &recRT{Runtime: Sim(sim.NewEngine())}
		r.Go("scan", func() {
			var q *QueryCtx
			if fork {
				q = NewQueryCtx(r).Fork()
			}
			for i := 0; i < 40; i++ {
				charge(r, q, 61*time.Microsecond)
				if i%3 == 0 {
					q.SleepUntil(r, r.Now()+Time(120*time.Microsecond))
				}
				if i%7 == 0 {
					q.SleepUntil(r, r.Now()-1) // a completion already past
				}
			}
			charge(r, q, 3*time.Millisecond)
			q.Flush()
		})
		r.Run()
		return r.log
	}
	with, without := script(true), script(false)
	if len(without) != 40+14+6+1 {
		t.Fatalf("unpaced script made %d timer calls, want %d", len(without), 40+14+6+1)
	}
	if !reflect.DeepEqual(with, without) {
		t.Fatalf("timer calls differ on the simulator:\nfork: %v\nnone: %v", with, without)
	}
}

// TestPaceOnlyForksArePaced: a nil handle and a root handle keep raw
// sleeps on the real runtime — a root is shared by every thread of a
// plan and must carry no clock of its own.
func TestPaceOnlyForksArePaced(t *testing.T) {
	r := &steppedRT{over: []Duration{0}}
	root := NewQueryCtx(r)
	for _, q := range []*QueryCtx{nil, root} {
		before := r.sleeps
		charge(r, q, 61*time.Microsecond)
		if r.sleeps != before+1 || q.Lead() != 0 {
			t.Fatalf("unpaced charge: %d sleeps, lead %v", r.sleeps-before, q.Lead())
		}
		q.Flush()
	}
	if (*QueryCtx)(nil).Fork() != nil {
		t.Fatal("nil handle forked to a non-nil one")
	}
}

// TestPaceForkSharesLifecycle: a fork is the same query — cancel,
// deadline and hooks are the root's — and a cancelled query's residual
// is not paid.
func TestPaceForkSharesLifecycle(t *testing.T) {
	r := &steppedRT{over: []Duration{0}}
	root := NewQueryCtx(r)
	a, b := root.Fork(), root.Fork()
	fired := 0
	a.OnCancel(func() { fired++ })
	charge(r, a, 300*time.Microsecond)
	if b.Lead() != 0 {
		t.Fatalf("a's clock shows on b: lead %v", b.Lead())
	}
	if a.Cancelled() {
		t.Fatal("fork of a live query is cancelled")
	}
	b.Cancel(CauseClientCancel)
	if !root.Cancelled() || !a.Cancelled() || a.Cause() != CauseClientCancel || fired != 1 {
		t.Fatalf("cancel through a fork: root %v a %v cause %v hooks %d", root.Cancelled(), a.Cancelled(), a.Cause(), fired)
	}
	a.Flush()
	if r.sleeps != 0 {
		t.Fatalf("cancelled query paid its residual: %d sleeps", r.sleeps)
	}

	late := NewQueryCtx(r)
	late.SetDeadline(r.Now() + Time(time.Millisecond))
	f := late.Fork()
	charge(r, f, 2*time.Millisecond) // sleeps past the deadline
	if !f.Cancelled() || late.Cause() != CauseDeadlineExceeded {
		t.Fatalf("deadline through a fork: cancelled %v cause %v", f.Cancelled(), late.Cause())
	}
}
