package sched

import (
	"slices"
	"sort"

	"repro/internal/sim"
)

// policies is the admission menu. A policy is only the order in which the
// scheduler drains its one queue of waiting tickets: before(a, b) reports
// whether a is admitted ahead of b, and nil means arrival order. The
// queue is kept in arrival order and the earliest of equal tickets wins,
// so every order breaks its ties by arrival.
//   - fifo admits in arrival order, the scheduler's historical behavior.
//   - sesf (shortest-expected-scan-first) admits the smallest Query.Cost:
//     with execution times known up front — which the predictive buffer
//     manager's speed estimates approximate — admitting short scans ahead
//     of long ones minimizes mean wait, at the cost of delaying long scans
//     under sustained load.
//   - wfq is per-tenant weighted fair queueing over admissions (start-time
//     fair queueing with unit service per query): the smallest finish tag
//     wins, ties broken by tenant id (see enqueueLocked for the tags).
//     Under saturation, with every tenant backlogged, tenants receive MPL
//     slots in proportion to their weights regardless of arrival volume,
//     so one tenant's burst of long scans cannot starve the others.
//     A tenant's tags strictly increase, so its queries stay FIFO.
var policies = map[string]func(a, b *Ticket) bool{
	"fifo": nil,
	"sesf": func(a, b *Ticket) bool { return a.q.Cost < b.q.Cost },
	"wfq":  func(a, b *Ticket) bool { return a.tag < b.tag || a.tag == b.tag && a.q.Tenant < b.q.Tenant },
}

// PolicyNames lists the admission policies, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policies))
	for name := range policies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// enqueueLocked appends t to the queue. Under wfq it first stamps t's
// finish tag: a tenant's tags advance by 1/weight per query (weights
// from Config.TenantWeights; missing or non-positive ones weigh 1) from
// max(virtual time, the tenant's previous tag), so a tenant that drained
// and returns resumes from the virtual clock rather than claiming
// back-service for its idle period. Caller holds s.mu.
func (s *Scheduler) enqueueLocked(t *Ticket) {
	if s.lastTag != nil {
		w := s.cfg.TenantWeights[t.q.Tenant]
		if w <= 0 {
			w = 1
		}
		t.tag = max(s.vtime, s.lastTag[t.q.Tenant]) + 1/w
		s.lastTag[t.q.Tenant] = t.tag
	}
	s.queue = append(s.queue, t)
}

// popLocked removes and returns the waiting ticket the policy admits
// next, or nil when none waits. Under wfq the virtual clock advances to
// the popped ticket's tag, and every tenant whose last tag it has reached
// is forgotten: such a tenant would restart from the clock anyway, so an
// absent entry is equivalent, and a long run with churning tenant ids
// keeps no state for departed ones. Caller holds s.mu.
func (s *Scheduler) popLocked() *Ticket {
	if len(s.queue) == 0 {
		return nil
	}
	best := 0
	if s.before != nil {
		for i, t := range s.queue {
			if s.before(t, s.queue[best]) {
				best = i
			}
		}
	}
	t := s.queue[best]
	s.queue = slices.Delete(s.queue, best, best+1)
	if s.lastTag != nil {
		s.vtime = t.tag
		for tenant, tag := range s.lastTag {
			if tag <= s.vtime {
				delete(s.lastTag, tenant)
			}
		}
	}
	return t
}

// removeLocked takes a dead waiting ticket out of the queue. The
// virtual clock does not move, and the tenant's last tag stays until the
// clock passes it, exactly as for a drained tenant. Caller holds s.mu.
func (s *Scheduler) removeLocked(t *Ticket) {
	if i := slices.Index(s.queue, t); i >= 0 {
		s.queue = slices.Delete(s.queue, i, i+1)
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
