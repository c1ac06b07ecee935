package sched

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/sim"
)

func TestPolicyRegistry(t *testing.T) {
	names := PolicyNames()
	want := map[string]bool{"fifo": true, "sesf": true, "wfq": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("built-in policies missing from %v", names)
	}
	for _, n := range []string{"fifo", "sesf", "wfq"} {
		if got := New(rt.Sim(sim.NewEngine()), Config{Policy: n}).Policy(); got != n {
			t.Fatalf("policy %q reports name %q", n, got)
		}
	}
}

func TestNewPanicsOnUnknownPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with unknown policy did not panic")
		}
	}()
	New(rt.Sim(sim.NewEngine()), Config{Policy: "nope"})
}

// admissionOrder drives queries through an MPL-1 scheduler: the first
// query occupies the slot while all the others enqueue simultaneously,
// so the recorded order beyond the first element is exactly the policy's
// pick sequence. Each query is described by (tenant, cost).
func admissionOrder(t *testing.T, cfg Config, queries []Query) []int {
	t.Helper()
	eng := sim.NewEngine()
	cfg.MPL = 1
	cfg.QueueDepth = -1
	sch := New(rt.Sim(eng), cfg)
	var order []int
	wg := eng.NewWaitGroup()
	for i, q := range queries {
		i, q := i, q
		wg.Add(1)
		eng.Go("q", func() {
			defer wg.Done()
			tk, ok := sch.AdmitQuery(q)
			if !ok {
				t.Errorf("query %d rejected with unbounded queue", i)
				return
			}
			order = append(order, i)
			eng.Sleep(time.Millisecond)
			tk.Done()
		})
	}
	eng.Go("driver", func() { wg.Wait() })
	eng.Run()
	return order
}

// SESF must admit queued queries in ascending stubbed-cost order,
// breaking ties by arrival, regardless of arrival order.
func TestSESFOrdersByExpectedCost(t *testing.T) {
	queries := []Query{
		{Seq: 0, Cost: 100}, // admitted immediately (MPL slot free)
		{Seq: 1, Cost: 9},
		{Seq: 2, Cost: 1},
		{Seq: 3, Cost: 5},
		{Seq: 4, Cost: 1}, // ties with #2; #2 arrived first
		{Seq: 5, Cost: 3},
	}
	got := admissionOrder(t, Config{Policy: "sesf"}, queries)
	want := []int{0, 2, 4, 5, 3, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sesf admission order %v, want %v", got, want)
	}
}

// FIFO through the policy seam must stay pure arrival order even when
// costs would say otherwise.
func TestFIFOIgnoresCost(t *testing.T) {
	queries := []Query{
		{Seq: 0, Cost: 9},
		{Seq: 1, Cost: 8},
		{Seq: 2, Cost: 7},
		{Seq: 3, Cost: 1},
	}
	got := admissionOrder(t, Config{Policy: "fifo"}, queries)
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("fifo admission order %v, want arrival order", got)
	}
}

// WFQ under saturation must hand out admissions in proportion to tenant
// weights: with weights 3:1 and both tenants permanently backlogged,
// every consecutive window of 4 admissions serves tenant 0 three times.
func TestWFQWeightedSharesUnderSaturation(t *testing.T) {
	const perTenant = 40
	var queries []Query
	// Interleave arrivals so neither tenant's backlog orders the other's.
	for i := 0; i < perTenant; i++ {
		queries = append(queries,
			Query{Stream: 0, Seq: i, Tenant: 0},
			Query{Stream: 1, Seq: i, Tenant: 1},
		)
	}
	order := admissionOrder(t, Config{
		Policy:        "wfq",
		TenantWeights: map[int]float64{0: 3, 1: 1},
	}, queries)
	// Count tenant-0 admissions in each window of 4 picks while both
	// tenants are still backlogged (the first 4/8 of the queue drains
	// tenant 0's 40 queries in 3:1 ratio windows).
	tenantOf := func(idx int) int { return queries[idx].Tenant }
	picks := order[1:] // order[0] is the immediately admitted slot holder
	for w := 0; w+4 <= len(picks) && w < 40; w += 4 {
		t0 := 0
		for _, idx := range picks[w : w+4] {
			if tenantOf(idx) == 0 {
				t0++
			}
		}
		if t0 != 3 {
			t.Fatalf("window %d: tenant 0 got %d of 4 admissions, want 3 (order %v)", w/4, t0, picks[:w+4])
		}
	}
	// Within one tenant, admission stays FIFO.
	lastSeq := -1
	for _, idx := range picks {
		if tenantOf(idx) != 0 {
			continue
		}
		if queries[idx].Seq <= lastSeq {
			t.Fatalf("tenant 0 admitted out of order: seq %d after %d", queries[idx].Seq, lastSeq)
		}
		lastSeq = queries[idx].Seq
	}
}

// Unweighted WFQ must alternate between equally backlogged tenants.
func TestWFQEqualWeightsRoundRobin(t *testing.T) {
	var queries []Query
	// Tenant 0 floods first; tenant 1 trickles in after.
	for i := 0; i < 8; i++ {
		queries = append(queries, Query{Stream: 0, Seq: i, Tenant: 0})
	}
	for i := 0; i < 4; i++ {
		queries = append(queries, Query{Stream: 1, Seq: i, Tenant: 1})
	}
	order := admissionOrder(t, Config{Policy: "wfq"}, queries)
	picks := order[1:]
	// While both tenants are backlogged, no tenant may be served twice in
	// a row more than its weight allows: equal weights alternate.
	t1Remaining := 4
	streak := 0
	for _, idx := range picks {
		if t1Remaining == 0 {
			break // only tenant 0 left; streaks are expected
		}
		if queries[idx].Tenant == 0 {
			streak++
			if streak > 2 {
				t.Fatalf("tenant 0 served %d in a row against a backlogged equal-weight tenant (order %v)", streak, picks)
			}
		} else {
			streak = 0
			t1Remaining--
		}
	}
}

// wfqQueue is a wfq scheduler whose queue a test drives directly, and
// waiter a bare waiting ticket for it.
func wfqQueue(weights map[int]float64) *Scheduler {
	return New(rt.Sim(sim.NewEngine()), Config{Policy: "wfq", TenantWeights: weights})
}

func waiter(tenant, seq int) *Ticket { return &Ticket{q: Query{Tenant: tenant, Seq: seq}} }

// A drained tenant must not bank credit for its idle period: after its
// queue empties, its next query is tagged from the current virtual time,
// not from its stale last tag.
func TestWFQNoCreditForIdleTenant(t *testing.T) {
	w := wfqQueue(nil)
	// Tenant 0 enqueues once and is served; vtime advances to 1.
	w.enqueueLocked(waiter(0, 1))
	if got := w.popLocked(); got.q.Tenant != 0 {
		t.Fatalf("first pick tenant %d", got.q.Tenant)
	}
	// Tenant 1 builds a backlog; its tags chain 1+1=2, 2+1=3.
	w.enqueueLocked(waiter(1, 2))
	w.enqueueLocked(waiter(1, 3))
	// Tenant 0 returns after idling: its tag must start from vtime (1),
	// giving tag 2 — tied with tenant 1's head, broken by tenant id — not
	// from its own stale tag 1 (which would unfairly jump the queue) nor
	// accumulate arrears.
	w.enqueueLocked(waiter(0, 4))
	if got := w.popLocked(); got.q.Tenant != 0 {
		t.Fatalf("returning tenant pick = tenant %d, want 0 via tie-break at equal tags", got.q.Tenant)
	}
	if got := w.popLocked(); got.q.Tenant != 1 {
		t.Fatalf("next pick tenant %d, want 1", got.q.Tenant)
	}
}

func TestSchedulerPolicyName(t *testing.T) {
	eng := sim.NewEngine()
	if got := New(rt.Sim(eng), Config{}).Policy(); got != "fifo" {
		t.Fatalf("default policy %q, want fifo", got)
	}
	if got := New(rt.Sim(eng), Config{Policy: "wfq"}).Policy(); got != "wfq" {
		t.Fatalf("policy %q, want wfq", got)
	}
}

// TenantStats must partition the completed queries by tenant, pad
// configured-but-idle tenants with zeros, and respect the SLO.
func TestTenantStats(t *testing.T) {
	eng := sim.NewEngine()
	sch := New(rt.Sim(eng), Config{MPL: 2, QueueDepth: -1, SLO: 15 * time.Millisecond})
	wg := eng.NewWaitGroup()
	// Tenant 0: two fast queries (10ms, meet SLO). Tenant 1: one slow
	// query (20ms, misses).
	for _, q := range []struct {
		tenant int
		d      sim.Duration
	}{{0, 10 * time.Millisecond}, {0, 10 * time.Millisecond}, {1, 20 * time.Millisecond}} {
		q := q
		wg.Add(1)
		eng.Go("q", func() {
			defer wg.Done()
			tk, _ := sch.AdmitQuery(Query{Tenant: q.tenant})
			eng.Sleep(q.d)
			tk.Done()
		})
	}
	eng.Go("driver", func() { wg.Wait() })
	eng.Run()
	got := sch.TenantStats(3)
	if len(got) != 3 {
		t.Fatalf("tenant stats %+v, want 3 entries", got)
	}
	if got[0].Completed != 2 || got[0].SLOAttainment != 1 || got[0].P95 != 10*time.Millisecond {
		t.Fatalf("tenant 0 stats %+v", got[0])
	}
	if got[1].Completed != 1 || got[1].SLOAttainment != 0 {
		t.Fatalf("tenant 1 stats %+v", got[1])
	}
	if got[2].Completed != 0 || got[2].P95 != 0 {
		t.Fatalf("idle tenant stats %+v", got[2])
	}
}

// Long serving runs with churning tenant ids must not leak per-tenant
// wfq state: once a tenant's queue drains and its tag falls behind the
// virtual clock, its bookkeeping is dropped (an absent entry restarts
// from vtime, which is semantically identical).
func TestWFQPrunesDepartedTenants(t *testing.T) {
	w := wfqQueue(nil)
	for tenant := 0; tenant < 10_000; tenant++ {
		w.enqueueLocked(waiter(tenant, tenant))
		if w.popLocked() == nil {
			t.Fatal("queued query not admitted")
		}
	}
	if len(w.queue) != 0 {
		t.Fatalf("queue len %d after draining", len(w.queue))
	}
	// Admitting a tenant's last query advances vtime to its tag, so every
	// departed tenant is immediately prunable.
	if len(w.lastTag) > 1 || len(w.queue) != 0 {
		t.Fatalf("state leaked across tenant churn: %d lastTag, %d queued",
			len(w.lastTag), len(w.queue))
	}
}

// Pruning must not change admission semantics: a drained tenant whose
// tag is still AHEAD of vtime keeps its entry, so it cannot bank credit
// by draining and re-enqueueing, while a fallen-behind tenant restarts
// from vtime exactly as if it had never been seen.
func TestWFQPruneKeepsAheadTenants(t *testing.T) {
	w := wfqQueue(map[int]float64{0: 1, 1: 4})
	// Tenant 0 (weight 1) enqueues twice: tags 1 and 2. Tenant 1 (weight
	// 4) enqueues once: tag 0.25.
	w.enqueueLocked(waiter(0, 0))
	w.enqueueLocked(waiter(0, 1))
	w.enqueueLocked(waiter(1, 2))
	// Admit tenant 1's query (tag 0.25 < 1): it drains, and vtime=0.25 is
	// behind tenant 0's lastTag=2, so tenant 0's entry must survive.
	if p := w.popLocked(); p.q.Tenant != 1 {
		t.Fatalf("admitted tenant %d, want 1", p.q.Tenant)
	}
	if _, ok := w.lastTag[0]; !ok {
		t.Fatal("backlogged tenant pruned")
	}
	if _, ok := w.lastTag[1]; ok {
		t.Fatal("drained, fallen-behind tenant not pruned")
	}
	// Tenant 0's two queries still admit in FIFO order with their original
	// tags (1 then 2), proving pruning left its state untouched.
	if p := w.popLocked(); p.q.Tenant != 0 || p.q.Seq != 0 {
		t.Fatalf("got %+v, want tenant 0 seq 0", p.q)
	}
	// vtime is now 1, still behind tenant 0's lastTag 2: entry survives
	// while its queue is non-empty either way.
	if p := w.popLocked(); p.q.Tenant != 0 || p.q.Seq != 1 {
		t.Fatalf("got %+v, want tenant 0 seq 1", p.q)
	}
	// Everything drained and vtime caught up: all state gone.
	if len(w.lastTag) != 0 || len(w.queue) != 0 {
		t.Fatalf("state not fully pruned: %d lastTag, %d queued",
			len(w.lastTag), len(w.queue))
	}
}
