package rt

import (
	"math/rand"
	"testing"
	"time"
)

// refPace is a paced thread's debt as it was before work done in credit
// banked credit: the wall time since the last pacing call came off a
// positive debt only, down to zero, and Flush paid the debt alone. It is
// the oracle TestDifferentialPace holds QueryCtx's pacing to. Device
// waits are left out: the change did not touch how they are charged.
type refPace struct {
	r    Runtime
	debt Duration
	mark Time
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

func (p *refPace) pay(lump Duration) {
	start := p.r.Now()
	p.r.Sleep(lump)
	p.mark = p.r.Now()
	p.debt -= Duration(p.mark - start)
	if p.debt < -paceCreditCap {
		p.debt = -paceCreditCap
	}
}

func (p *refPace) charge(d Duration) {
	p.settle()
	p.debt += d
	if p.debt >= paceQuantum {
		p.pay(p.debt)
	}
}

func (p *refPace) flush() {
	p.settle()
	if p.debt > 0 {
		p.pay(p.debt)
	}
}

// paceStep is one step of a pacing script: real work, a wait blocked
// outside pacing, then a charge, on a timer that wakes over late from any
// lump the charge sleeps.
type paceStep struct{ work, blocked, charge, over Duration }

// randomPaceScript draws a script whose timer overshoots by at most
// maxOver, with a blocked wait in about a quarter of its steps when
// blocked is set.
func randomPaceScript(rng *rand.Rand, maxOver Duration, blocked bool) []paceStep {
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
		s.over = min([]Duration{0, us(200), us(1200), maxOver}[rng.Intn(4)], maxOver)
	}
	return steps
}

// pacer is one pacing rule bound to a runtime: charge, wait on a
// Waiter, flush at close, and the debt it holds.
type pacer struct {
	charge func(Duration)
	wait   func(Waiter)
	flush  func()
	debt   func() Duration
}

func newPacer(r *steppedRT) pacer {
	q := NewQueryCtx(r).Fork()
	return pacer{func(d Duration) { charge(r, q, d) }, q.Wait, q.Flush, func() Duration { return q.debt }}
}

// newRefPacer's waits are plain: the next pacing call nets the time
// blocked as it nets work.
func newRefPacer(r *steppedRT) pacer {
	p := &refPace{r: r}
	return pacer{p.charge, Waiter.Wait, p.flush, func() Duration { return p.debt }}
}

// playPace plays a script on a stepped clock through a pacing rule and
// returns the wall time it took, the time it charged, and the credit the
// thread still held when it closed.
func playPace(steps []paceStep, rule func(*steppedRT) pacer) (wall, charged, credit Duration) {
	r := &steppedRT{over: []Duration{0}}
	p := rule(r)
	for _, s := range steps {
		r.now += Time(s.work)
		if s.blocked > 0 {
			p.wait(waitFunc(func() { r.now += Time(s.blocked) }))
		}
		r.over[0] = s.over
		p.charge(s.charge)
		charged += s.charge
	}
	r.over[0] = 0
	p.flush()
	return Duration(r.now), charged, -p.debt()
}

// TestDifferentialPace holds pacing to refPace over random scripts of
// work, blocked waits, charges and late wake-ups, on a timer that is
// exact, overshoots within the credit cap, or stalls past it. A thread
// never takes less wall time than it was charged. On an exact timer and
// with no blocked wait, the wall time it loses — time that passed, was
// not charged, and is not the credit it closes holding — is never more
// than the old rule lost: the old rule lost all work done beyond the
// debt, the new one only what the cap clips.
//
// Neither rule's wall time bounds the other's in general. The two rules
// sleep their lumps at different instants, so a late wake-up or a
// blocked wait can land on a lump in one and between lumps in the other:
// a blocked wait pays a debt that is still owed, and is lost when it
// follows a lump that has just been slept. And a thread whose real work
// outruns its charges closes in credit: its wall time is its work, which
// can exceed the time the old rule, which charged less, slept.
func TestDifferentialPace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6000; trial++ {
		maxOver := []Duration{0, paceCreditCap, 10 * time.Millisecond}[trial%3]
		blocked := trial%2 == 1
		steps := randomPaceScript(rng, maxOver, blocked)
		wall, charged, credit := playPace(steps, newPacer)
		ref, _, refCredit := playPace(steps, newRefPacer)
		if wall < charged {
			t.Fatalf("trial %d (%d steps): %v of wall time for %v charged", trial, len(steps), wall, charged)
		}
		if lost, refLost := wall-charged-credit, ref-charged-refCredit; maxOver == 0 && !blocked && lost > refLost {
			t.Fatalf("trial %d (%d steps): lost %v of wall time (%v for %v charged, %v credit at close), reference lost %v",
				trial, len(steps), lost, wall, charged, credit, refLost)
		}
	}
}
