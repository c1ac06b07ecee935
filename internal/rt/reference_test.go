package rt

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// refDebt is pacing as it was before the modelled clock: a debt of
// modelled time charged and not yet slept, negative in credit, the wall
// time of the last pacing call, and the end of the last device wait,
// from which every call works the clock out again. It is the oracle
// TestDifferentialPace holds QueryCtx's pacing to, call for call, on a
// handle that is always paced and never cancelled.
type refDebt struct {
	r     Runtime
	debt  Duration // modelled time charged and not yet slept; negative is credit
	ready Time     // completion of the last device wait (see Lead)
	mark  Time     // the last pacing call; the wall time since is the thread's work
}

// owed is the debt net of the wall time the thread has spent since its
// last pacing call: real work pays the debt down and, in credit, banks
// more, down to the cap; a credit already beyond the cap is kept.
func (q *refDebt) owed(now Time) Duration {
	return min(q.debt, max(q.debt-Duration(now-q.mark), -paceCreditCap))
}

func (q *refDebt) settle() {
	now := q.r.Now()
	q.debt, q.mark = q.owed(now), now
}

func (q *refDebt) Wait(w Waiter) {
	q.settle()
	w.Wait()
	now := q.r.Now()
	if q.debt > 0 {
		q.debt = max(q.debt-Duration(now-q.mark), 0)
	}
	q.mark = now
}

func (q *refDebt) Lead() Duration {
	now := q.r.Now()
	return max(q.owed(now), Duration(q.ready-now), 0)
}

func (q *refDebt) Owe(d Duration) Duration {
	q.settle()
	q.debt += d
	if q.debt < paceQuantum {
		return 0
	}
	return q.debt
}

func (q *refDebt) Pay(r Runtime, lump Duration) {
	start := r.Now()
	r.Sleep(lump)
	q.mark = r.Now()
	q.debt -= Duration(q.mark - start)
	if q.debt < -paceCreditCap {
		q.debt = -paceCreditCap
	}
}

func (q *refDebt) SleepUntil(r Runtime, t Time) {
	wait := max(Duration(t-r.Now()), 0)
	lump := q.Owe(wait - q.Lead())
	q.ready = t
	if lump > 0 {
		q.Pay(r, lump)
	}
}

func (q *refDebt) Flush() {
	q.settle()
	lump := max(q.debt, Duration(q.ready-q.mark))
	if lump <= 0 {
		return
	}
	q.Pay(q.r, lump)
}

// refPace is a paced thread's debt as it was before work done in credit
// banked credit: the wall time since the last pacing call came off a
// positive debt only, down to zero, and Flush paid the debt alone. Its
// waits are plain: the next pacing call nets the time blocked as it nets
// work. TestDifferentialPace holds QueryCtx to it on scripts of charges
// and work alone; it has no device-wait rule.
type refPace struct {
	pacing // nil: Lead and SleepUntil are not implemented
	r      Runtime
	debt   Duration
	mark   Time
}

func (p *refPace) owed(now Time) Duration {
	if p.debt <= 0 {
		return p.debt
	}
	return max(p.debt-Duration(now-p.mark), 0)
}

func (p *refPace) settle() {
	now := p.r.Now()
	p.debt, p.mark = p.owed(now), now
}

func (p *refPace) Pay(r Runtime, lump Duration) {
	start := r.Now()
	r.Sleep(lump)
	p.mark = r.Now()
	p.debt -= Duration(p.mark - start)
	if p.debt < -paceCreditCap {
		p.debt = -paceCreditCap
	}
}

func (p *refPace) Owe(d Duration) Duration {
	p.settle()
	p.debt += d
	if p.debt < paceQuantum {
		return 0
	}
	return p.debt
}

func (p *refPace) Wait(w Waiter) { w.Wait() }

func (p *refPace) Flush() {
	p.settle()
	if p.debt > 0 {
		p.Pay(p.r, p.debt)
	}
}

// pacing is a scan thread's side of a pacing rule: QueryCtx's and the
// oracles'.
type pacing interface {
	Owe(Duration) Duration
	Pay(Runtime, Duration)
	Wait(Waiter)
	Lead() Duration
	SleepUntil(Runtime, Time)
	Flush()
}

// paceStep is one step of a pacing script: real work; a device read
// submitted then, either served on the thread's modelled clock or
// skipped, ending at its submission as a device ends a cancelled
// request; a wait blocked outside pacing, which a read's requester spends
// queued for the device; the read's wait; then a charge, whose lump is
// paid after a wait for a core. Every lump the step sleeps wakes over
// late.
type paceStep struct {
	work, blocked      Duration
	read, skipped      bool
	service            Duration
	charge, core, over Duration
}

// randomPaceScript draws a script whose timer overshoots by at most
// maxOver, with a blocked wait in about a quarter of its steps when
// blocked is set, and, when devices is set, a device read in about a
// third of them (a quarter of those skipped) and a wait for a core
// before half of the lumps.
func randomPaceScript(rng *rand.Rand, maxOver Duration, blocked, devices bool) []paceStep {
	us := func(n int) Duration { return Duration(rng.Intn(n)) * time.Microsecond }
	steps := make([]paceStep, 1+rng.Intn(300))
	for i := range steps {
		s := &steps[i]
		s.charge = []Duration{us(130), us(1500), us(3000)}[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			s.work = us(400)
		}
		if blocked && rng.Intn(4) == 0 {
			s.blocked = us(3000)
		}
		if devices && rng.Intn(3) == 0 {
			s.read, s.skipped = true, rng.Intn(4) == 0
			s.service = []Duration{us(300), us(3000)}[rng.Intn(2)]
		}
		if devices && rng.Intn(2) == 0 {
			s.core = us(3000)
		}
		s.over = min([]Duration{0, us(200), us(1200), maxOver}[rng.Intn(4)], maxOver)
	}
	return steps
}

// playPace plays a script through p, a pacing rule on r, calls step
// after every step with the lump its charge owed, and returns the wall
// time the script took, Flush included.
func playPace(steps []paceStep, p pacing, r *steppedRT, step func(lump Duration)) Duration {
	for _, s := range steps {
		r.now += Time(s.work)
		var until Time
		if s.read {
			until = r.now
			if !s.skipped {
				until += Time(p.Lead() + s.service)
			}
		}
		if s.blocked > 0 {
			p.Wait(waitFunc(func() { r.now += Time(s.blocked) }))
		}
		r.over[0] = s.over
		if s.read {
			p.SleepUntil(r, until)
		}
		lump := p.Owe(s.charge)
		if lump > 0 {
			r.now += Time(s.core)
			p.Pay(r, lump)
		}
		step(lump)
	}
	r.over[0] = 0
	p.Flush()
	return Duration(r.now)
}

// TestDifferentialPace plays random scripts of work, blocked waits,
// device waits, charges, waits for a core and late wake-ups, on a timer
// that is exact, overshoots within the credit cap, or stalls past it.
//
// QueryCtx's clock is held to refDebt exactly: the same lump owed by
// every charge, the same Lead after every step, the same sleeps at the
// same instants and the same wall time at close. After every step the
// clock, as a pacing call reads it, is never more than the credit cap
// behind the later of the wall clock and the end of the last device wait,
// which is why the clock needs no record of the last call's wall time.
//
// On scripts without device waits a thread never takes less wall time
// than it was charged. On an exact timer and with no blocked wait, the
// wall time it loses — time that passed, was not charged, and is not the
// credit it closes holding — is never more than refPace lost: that rule
// lost all work done beyond the debt, this one only what the cap clips.
// Neither rule's wall time bounds the other's in general. The two rules
// sleep their lumps at different instants, so a late wake-up or a
// blocked wait can land on a lump in one and between lumps in the other:
// a blocked wait pays time that is still owed, and is lost when it
// follows a lump that has just been slept. And a thread whose real work
// outruns its charges closes in credit: its wall time is its work, which
// can exceed the time the old rule, which charged less, slept.
func TestDifferentialPace(t *testing.T) {
	type obs struct {
		lump, lead Duration
		now        Time
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12000; trial++ {
		maxOver := []Duration{0, paceCreditCap, 10 * time.Millisecond}[trial%3]
		blocked, devices := trial%2 == 1, trial%4 >= 2
		steps := randomPaceScript(rng, maxOver, blocked, devices)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d (%d steps, over %v, blocked %v, devices %v): "+format,
				append([]any{trial, len(steps), maxOver, blocked, devices}, args...)...)
		}

		r := &steppedRT{over: []Duration{0}}
		q := NewQueryCtx(r).Fork()
		var got []obs
		var charged Duration
		wall := playPace(steps, q, r, func(lump Duration) {
			charged += steps[len(got)].charge
			got = append(got, obs{lump, q.Lead(), r.now})
			if c, floor := q.at(r.now), max(r.now, q.ready)-Time(paceCreditCap); c < floor {
				fail("step %d: clock %d more than the cap behind %d", len(got)-1, c, floor+Time(paceCreditCap))
			}
		})
		credit := Duration(r.now - q.at(r.now))

		rr := &steppedRT{over: []Duration{0}}
		ref := &refDebt{r: rr}
		var want []obs
		refWall := playPace(steps, ref, rr, func(lump Duration) { want = append(want, obs{lump, ref.Lead(), rr.now}) })
		for i := range got {
			if got[i] != want[i] {
				fail("step %d: lump %v, lead %v at %d; reference lump %v, lead %v at %d",
					i, got[i].lump, got[i].lead, got[i].now, want[i].lump, want[i].lead, want[i].now)
			}
		}
		if !reflect.DeepEqual(r.log, rr.log) || wall != refWall {
			fail("sleeps %v and wall %v at close; reference sleeps %v and wall %v", r.log, wall, rr.log, refWall)
		}

		if devices {
			continue
		}
		if wall < charged {
			fail("%v of wall time for %v charged", wall, charged)
		}
		or := &steppedRT{over: []Duration{0}}
		old := &refPace{r: or}
		oldWall := playPace(steps, old, or, func(Duration) {})
		if lost, oldLost := wall-charged-credit, oldWall-charged+old.debt; maxOver == 0 && !blocked && lost > oldLost {
			fail("lost %v of wall time (%v for %v charged, %v credit at close), refPace lost %v",
				lost, wall, charged, credit, oldLost)
		}
	}
}
