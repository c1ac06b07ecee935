package sched

import (
	"sort"

	"repro/internal/rt"
	"repro/internal/sim"
)

// Pending is one query waiting in the admission queue, as an
// AdmissionPolicy sees it: identity, fairness domain, the cost estimate
// supplied at arrival, and a monotonically increasing arrival number for
// deterministic tie-breaks.
type Pending struct {
	// Stream and Seq identify the query within its client stream.
	Stream, Seq int
	// Tenant is the fairness domain the query belongs to (wfq's unit of
	// weighting; a label elsewhere).
	Tenant int
	// Cost is the query's expected work in seconds of expected execution
	// time (or any unit consistent across one scheduler's queries); zero
	// when the caller supplied no estimate.
	Cost float64
	// Order is the query's arrival sequence number. Policies break
	// priority ties in Order so equal-priority admission is deterministic
	// and starvation-free within a priority class.
	Order int64

	ev     rt.Event // fired by the scheduler to hand the freed MPL slot over
	arrive sim.Time // arrival timestamp, for queue-drop latency accounting

	// qctx is the query's lifecycle handle (nil when the caller runs
	// without one). The scheduler consults it when the entry reaches the
	// head of the queue: a dead entry is dropped instead of admitted.
	qctx *rt.QueryCtx
	// granted and dropCause record, under the scheduler mutex, how the
	// entry left the queue: exactly one of them is set before ev fires.
	// The parked AdmitQuery reads them on wake-up to learn whether it was
	// handed the MPL slot or dropped.
	granted   bool
	dropCause rt.CancelCause
}

// AdmissionPolicy orders the admission queue: it owns the waiting set and
// picks which query receives the MPL slot a completing query frees. The
// scheduler calls every method under its own mutex, so implementations
// need no locking, but they must be deterministic: given the same
// Enqueue/Next call sequence they must return the same queries in the
// same order, or simulator runs stop being reproducible.
type AdmissionPolicy interface {
	// Name reports the policy's name on the menu.
	Name() string
	// Enqueue adds a query to the waiting set.
	Enqueue(p *Pending)
	// Next removes and returns the query to admit next, or nil when no
	// query is waiting.
	Next() *Pending
	// Remove deletes a specific waiting entry (a cancelled or expired
	// query that must not occupy a queue slot), reporting whether it was
	// present. Removal must not disturb the relative order of the
	// remaining entries.
	Remove(p *Pending) bool
	// Len reports the number of waiting queries.
	Len() int
	// UsesCost reports whether the policy consults Pending.Cost, so
	// drivers can skip pricing queries for policies that ignore it.
	UsesCost() bool
}

// NewPolicy returns a fresh instance of the named admission policy, or
// ok=false when the name is not on the menu. weights maps tenant id to
// its fair-share weight; tenants absent from the map (or with
// non-positive entries) weigh 1. Only wfq consults it.
func NewPolicy(name string, weights map[int]float64) (AdmissionPolicy, bool) {
	switch name {
	case "fifo":
		return &fifoPolicy{}, true
	case "sesf":
		return &sesfPolicy{}, true
	case "wfq":
		return newWFQ(weights), true
	}
	return nil, false
}

// PolicyNames lists the admission policies, sorted.
func PolicyNames() []string { return []string{"fifo", "sesf", "wfq"} }

// fifoPolicy admits in arrival order — the scheduler's historical
// behavior, bit-identical to the pre-policy hard-coded queue.
type fifoPolicy struct {
	q []*Pending
}

func (f *fifoPolicy) Name() string       { return "fifo" }
func (f *fifoPolicy) UsesCost() bool     { return false }
func (f *fifoPolicy) Enqueue(p *Pending) { f.q = append(f.q, p) }
func (f *fifoPolicy) Len() int           { return len(f.q) }

func (f *fifoPolicy) Next() *Pending {
	if len(f.q) == 0 {
		return nil
	}
	p := f.q[0]
	f.q = f.q[1:]
	return p
}

func (f *fifoPolicy) Remove(p *Pending) bool {
	for i, q := range f.q {
		if q == p {
			f.q = append(f.q[:i], f.q[i+1:]...)
			return true
		}
	}
	return false
}

// sesfPolicy admits the waiting query with the smallest expected work
// (shortest-expected-scan-first): with execution times known up front —
// which the predictive buffer manager's speed estimates approximate —
// admitting short scans ahead of long ones minimizes mean wait, at the
// cost of delaying long scans under sustained load. Cost ties fall back
// to arrival order.
type sesfPolicy struct {
	q []*Pending
}

func (s *sesfPolicy) Name() string       { return "sesf" }
func (s *sesfPolicy) UsesCost() bool     { return true }
func (s *sesfPolicy) Enqueue(p *Pending) { s.q = append(s.q, p) }
func (s *sesfPolicy) Len() int           { return len(s.q) }

func (s *sesfPolicy) Next() *Pending {
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

func (s *sesfPolicy) Remove(p *Pending) bool {
	for i, q := range s.q {
		if q == p {
			s.q = append(s.q[:i], s.q[i+1:]...)
			return true
		}
	}
	return false
}

// wfqPolicy implements per-tenant weighted fair queueing over admissions
// (start-time fair queueing with unit service per query): every queued
// query gets a virtual finish tag — a tenant's tags advance by 1/weight
// per query from max(global virtual time, the tenant's previous tag) —
// and the smallest tag is admitted next. Under saturation, with every
// tenant backlogged, tenants therefore receive MPL slots in proportion
// to their weights regardless of per-tenant arrival volume, so one
// tenant's burst of long scans cannot starve the others' admissions.
// Queries of one tenant stay FIFO among themselves; tag ties break by
// tenant id, then arrival order.
type wfqPolicy struct {
	weights map[int]float64
	queues  map[int][]wfqItem // per-tenant FIFO of tagged waiters
	lastTag map[int]float64   // the tenant's most recently assigned tag
	vtime   float64           // finish tag of the last admitted query
	n       int
}

type wfqItem struct {
	p   *Pending
	tag float64
}

func newWFQ(weights map[int]float64) *wfqPolicy {
	return &wfqPolicy{
		weights: weights,
		queues:  map[int][]wfqItem{},
		lastTag: map[int]float64{},
	}
}

func (w *wfqPolicy) Name() string { return "wfq" }

// UsesCost reports false: wfq charges unit service per query, so the
// cost estimate is never read.
func (w *wfqPolicy) UsesCost() bool { return false }
func (w *wfqPolicy) Len() int       { return w.n }

func (w *wfqPolicy) weight(tenant int) float64 {
	if v, ok := w.weights[tenant]; ok && v > 0 {
		return v
	}
	return 1
}

func (w *wfqPolicy) Enqueue(p *Pending) {
	start := w.vtime
	if last, ok := w.lastTag[p.Tenant]; ok && last > start {
		start = last
	}
	tag := start + 1/w.weight(p.Tenant)
	w.lastTag[p.Tenant] = tag
	w.queues[p.Tenant] = append(w.queues[p.Tenant], wfqItem{p: p, tag: tag})
	w.n++
}

func (w *wfqPolicy) Next() *Pending {
	if w.n == 0 {
		return nil
	}
	// Map iteration order is irrelevant: (tag, tenant) is a strict total
	// order, so the minimum is unique and the choice deterministic.
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
		// The tenant's lastTag survives (until pruned below), so a tenant
		// that drains and returns resumes from max(vtime, its own tag)
		// rather than claiming back-service for its idle period.
		delete(w.queues, best)
	} else {
		w.queues[best] = q[1:]
	}
	w.n--
	w.vtime = item.tag
	w.prune()
	return item.p
}

// Remove splices a dead entry out of its tenant's FIFO. The tenant's
// lastTag is left in place: later arrivals of the same tenant keep their
// already-assigned start tags consistent, and prune() reclaims the entry
// once the virtual clock passes it, exactly as for a drained tenant.
func (w *wfqPolicy) Remove(p *Pending) bool {
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

// prune drops per-tenant state that can no longer influence any future
// tag: a drained tenant whose last tag has fallen behind the virtual
// clock would restart from vtime anyway (Enqueue takes max(vtime,
// lastTag)), so its entry is semantically identical to an absent one.
// Without this, a long serving run with churning tenant ids — every
// connection mapped to a fresh fairness domain — grows lastTag without
// bound. Deletion order does not matter: no output depends on which
// stale entries go first, so map iteration keeps runs deterministic.
func (w *wfqPolicy) prune() {
	if len(w.lastTag) <= len(w.queues) {
		// Every lastTag entry has a backlogged queue: nothing is
		// prunable, and skipping the sweep keeps fully-loaded admission
		// at the min-scan cost it already pays.
		return
	}
	for tenant, tag := range w.lastTag {
		if tag > w.vtime {
			continue // still ahead: the tenant banked no credit but owes service time
		}
		if _, queued := w.queues[tenant]; queued {
			continue
		}
		delete(w.lastTag, tenant)
	}
}

// TenantStat is one tenant's slice of the serving report: completion
// count, end-to-end latency p95, and SLO attainment over that tenant's
// completed queries.
type TenantStat struct {
	Tenant        int
	Completed     int64
	P95           sim.Duration
	SLOAttainment float64
}

// TenantStats summarizes completed queries per tenant, sorted by tenant
// id. The result always covers tenants 0..minTenants-1 (tenants with no
// completions report zeros), plus any higher tenant id that completed a
// query.
func (s *Scheduler) TenantStats(minTenants int) []TenantStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	lats := map[int][]sim.Duration{}
	met := map[int]int64{}
	for _, q := range s.completed {
		if q.Write {
			// Per-tenant fairness columns compare scan latencies; write
			// completions live in Stats.WriteCompleted.
			continue
		}
		lats[q.Tenant] = append(lats[q.Tenant], q.Latency())
		if s.cfg.SLO <= 0 || q.Latency() <= s.cfg.SLO {
			met[q.Tenant]++
		}
	}
	ids := make([]int, 0, len(lats)+minTenants)
	seen := map[int]bool{}
	for t := 0; t < minTenants; t++ {
		ids = append(ids, t)
		seen[t] = true
	}
	for t := range lats {
		if !seen[t] {
			ids = append(ids, t)
		}
	}
	sort.Ints(ids)
	out := make([]TenantStat, 0, len(ids))
	for _, t := range ids {
		ts := TenantStat{Tenant: t, Completed: int64(len(lats[t]))}
		if ts.Completed > 0 {
			ts.P95 = Percentile(lats[t], 95)
			ts.SLOAttainment = float64(met[t]) / float64(ts.Completed)
		}
		out = append(out, ts)
	}
	return out
}
