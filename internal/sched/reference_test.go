package sched

import (
	"math/rand"
	"testing"

	"repro/internal/rt"
	"repro/internal/sim"
)

// The admission policies as they were before the scheduler owned one
// queue: each kept its own waiting set behind an Enqueue/Next/Remove/Len
// interface. They are the oracle the scheduler's single queue is held
// to, pick for pick.

// refPending is what a reference policy sees of a waiting query; t is
// the scheduler's ticket for the same query.
type refPending struct {
	Tenant int
	Cost   float64
	Order  int64
	t      *Ticket
}

type refPolicy interface {
	Enqueue(p *refPending)
	Next() *refPending
	Remove(p *refPending) bool
	Len() int
}

func newRefPolicy(name string, weights map[int]float64) refPolicy {
	switch name {
	case "fifo":
		return &refFIFO{}
	case "sesf":
		return &refSESF{}
	case "wfq":
		return newRefWFQ(weights)
	}
	panic("unknown reference policy " + name)
}

// refFIFO admits in arrival order.
type refFIFO struct {
	q []*refPending
}

func (f *refFIFO) Enqueue(p *refPending) { f.q = append(f.q, p) }
func (f *refFIFO) Len() int              { return len(f.q) }

func (f *refFIFO) Next() *refPending {
	if len(f.q) == 0 {
		return nil
	}
	p := f.q[0]
	f.q = f.q[1:]
	return p
}

func (f *refFIFO) Remove(p *refPending) bool {
	for i, q := range f.q {
		if q == p {
			f.q = append(f.q[:i], f.q[i+1:]...)
			return true
		}
	}
	return false
}

// refSESF admits the smallest Cost first; cost ties fall back to arrival
// order.
type refSESF struct {
	q []*refPending
}

func (s *refSESF) Enqueue(p *refPending) { s.q = append(s.q, p) }
func (s *refSESF) Len() int              { return len(s.q) }

func (s *refSESF) Next() *refPending {
	if len(s.q) == 0 {
		return nil
	}
	best := 0
	for i, p := range s.q[1:] {
		if p.Cost < s.q[best].Cost || (p.Cost == s.q[best].Cost && p.Order < s.q[best].Order) {
			best = i + 1
		}
	}
	p := s.q[best]
	s.q = append(s.q[:best], s.q[best+1:]...)
	return p
}

func (s *refSESF) Remove(p *refPending) bool {
	for i, q := range s.q {
		if q == p {
			s.q = append(s.q[:i], s.q[i+1:]...)
			return true
		}
	}
	return false
}

// refWFQ is per-tenant weighted fair queueing with unit service per
// query: per-tenant FIFOs of tagged waiters, the smallest (tag, tenant)
// head admitted next.
type refWFQ struct {
	weights map[int]float64
	queues  map[int][]refWFQItem
	lastTag map[int]float64
	vtime   float64
	n       int
}

type refWFQItem struct {
	p   *refPending
	tag float64
}

func newRefWFQ(weights map[int]float64) *refWFQ {
	return &refWFQ{
		weights: weights,
		queues:  map[int][]refWFQItem{},
		lastTag: map[int]float64{},
	}
}

func (w *refWFQ) Len() int { return w.n }

func (w *refWFQ) weight(tenant int) float64 {
	if v, ok := w.weights[tenant]; ok && v > 0 {
		return v
	}
	return 1
}

func (w *refWFQ) Enqueue(p *refPending) {
	start := w.vtime
	if last, ok := w.lastTag[p.Tenant]; ok && last > start {
		start = last
	}
	tag := start + 1/w.weight(p.Tenant)
	w.lastTag[p.Tenant] = tag
	w.queues[p.Tenant] = append(w.queues[p.Tenant], refWFQItem{p: p, tag: tag})
	w.n++
}

func (w *refWFQ) Next() *refPending {
	if w.n == 0 {
		return nil
	}
	best, bestTag, found := 0, 0.0, false
	for tenant, q := range w.queues {
		tag := q[0].tag
		if !found || tag < bestTag || (tag == bestTag && tenant < best) {
			best, bestTag, found = tenant, tag, true
		}
	}
	q := w.queues[best]
	item := q[0]
	if len(q) == 1 {
		delete(w.queues, best)
	} else {
		w.queues[best] = q[1:]
	}
	w.n--
	w.vtime = item.tag
	w.prune()
	return item.p
}

func (w *refWFQ) Remove(p *refPending) bool {
	q := w.queues[p.Tenant]
	for i, item := range q {
		if item.p != p {
			continue
		}
		if len(q) == 1 {
			delete(w.queues, p.Tenant)
		} else {
			w.queues[p.Tenant] = append(q[:i:i], q[i+1:]...)
		}
		w.n--
		return true
	}
	return false
}

// prune drops a drained tenant's last tag once the virtual clock has
// caught up with it.
func (w *refWFQ) prune() {
	if len(w.lastTag) <= len(w.queues) {
		return
	}
	for tenant, tag := range w.lastTag {
		if tag > w.vtime {
			continue
		}
		if _, queued := w.queues[tenant]; queued {
			continue
		}
		delete(w.lastTag, tenant)
	}
}

// TestQueueMatchesReferencePolicies drives random enqueue / remove / pop
// sequences through the scheduler's queue and through the reference
// policy of the same name: every pop must pick the same query, and the
// two must agree on the queue length after every step. Small integer
// costs make sesf ties common, and uneven weights make wfq tags collide
// across tenants, so both tie-breaks are exercised.
func TestQueueMatchesReferencePolicies(t *testing.T) {
	const seeds, steps, tenants = 200, 400, 5
	weights := map[int]float64{0: 3, 1: 1, 2: 0.5}
	for _, pol := range PolicyNames() {
		for seed := int64(0); seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := New(rt.Sim(sim.NewEngine()), Config{Policy: pol, TenantWeights: weights})
			ref := newRefPolicy(pol, weights)
			var waiting []*refPending
			for step := 0; step < steps; step++ {
				switch op := rng.Intn(20); {
				case op < 10:
					p := &refPending{Tenant: rng.Intn(tenants), Cost: float64(rng.Intn(4)), Order: int64(step)}
					p.t = &Ticket{q: Query{Seq: step, Tenant: p.Tenant, Cost: p.Cost}}
					s.enqueueLocked(p.t)
					ref.Enqueue(p)
					waiting = append(waiting, p)
				case op < 13 && len(waiting) > 0:
					i := rng.Intn(len(waiting))
					p := waiting[i]
					waiting = append(waiting[:i], waiting[i+1:]...)
					s.removeLocked(p.t)
					if !ref.Remove(p) {
						t.Fatalf("%s seed %d step %d: reference lost seq %d", pol, seed, step, p.t.q.Seq)
					}
				default:
					got, want := s.popLocked(), ref.Next()
					if want == nil {
						if got != nil {
							t.Fatalf("%s seed %d step %d: popped seq %d from an empty queue", pol, seed, step, got.q.Seq)
						}
						break
					}
					if got != want.t {
						t.Fatalf("%s seed %d step %d: popped %+v, reference picked %+v", pol, seed, step, got.q, want.t.q)
					}
					for i, p := range waiting {
						if p == want {
							waiting = append(waiting[:i], waiting[i+1:]...)
							break
						}
					}
				}
				if len(s.queue) != ref.Len() {
					t.Fatalf("%s seed %d step %d: queue length %d, reference %d", pol, seed, step, len(s.queue), ref.Len())
				}
			}
		}
	}
}
