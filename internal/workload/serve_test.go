package workload

import (
	"reflect"
	"testing"
	"time"
)

// tinyServeConfig shrinks the serving run for tests: 16 streams of 3
// queries over the shared tiny database.
func tinyServeConfig() ServeConfig {
	cfg := DefaultServeConfig()
	cfg.Streams = 16
	cfg.QueriesPerStream = 3
	cfg.ArrivalRate = 20
	cfg.MPL = 4
	return cfg
}

func TestRunServeAllPolicies(t *testing.T) {
	for _, pol := range []Policy{LRU, MRU, Clock, PBM, PBMLRU, CScan} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := tinyServeConfig()
			cfg.Policy = pol
			res := RunServe(tinyDB, cfg)
			want := int64(cfg.Streams * cfg.QueriesPerStream)
			if res.Sched.Arrived != want {
				t.Fatalf("arrived %d, want %d", res.Sched.Arrived, want)
			}
			if res.Sched.Completed == 0 {
				t.Fatal("no queries completed")
			}
			if res.TotalIOBytes <= 0 {
				t.Fatal("no I/O recorded")
			}
			if res.Sched.Latency.P50 <= 0 || res.Sched.Exec.P50 <= 0 {
				t.Fatalf("missing latency accounting: %+v", res.Sched.Latency)
			}
			if res.Sched.Latency.P99 < res.Sched.Latency.P50 {
				t.Fatalf("p99 %v < p50 %v", res.Sched.Latency.P99, res.Sched.Latency.P50)
			}
			if res.Sched.Throughput <= 0 {
				t.Fatal("no throughput")
			}
		})
	}
}

// The serving stack must stay deterministic on a PBM pool, and the pool
// counters it reports must account for every byte the run read.
func TestServePoolDeterministicAndAccounted(t *testing.T) {
	run := func() *ServeResult {
		cfg := tinyServeConfig()
		cfg.Policy = PBM
		return RunServe(tinyDB, cfg)
	}
	a, b := run(), run()
	if a.Sched != b.Sched || a.TotalIOBytes != b.TotalIOBytes {
		t.Fatalf("nondeterministic: %+v/%d vs %+v/%d", a.Sched, a.TotalIOBytes, b.Sched, b.TotalIOBytes)
	}
	if a.PoolStats.Hits+a.PoolStats.Misses == 0 {
		t.Fatal("empty pool stats")
	}
	if a.PoolStats.BytesLoaded != a.TotalIOBytes {
		t.Fatalf("pool bytes %d != total I/O %d", a.PoolStats.BytesLoaded, a.TotalIOBytes)
	}
}

func TestServeOverloadShowsQueueing(t *testing.T) {
	light := tinyServeConfig()
	light.Policy = LRU
	light.ArrivalRate = 2 // well under capacity
	heavy := light
	heavy.ArrivalRate = 2000 // all queries arrive nearly at once
	rl := RunServe(tinyDB, light)
	rh := RunServe(tinyDB, heavy)
	if rh.Sched.QueueWait.P95 <= rl.Sched.QueueWait.P95 {
		t.Errorf("overload queue wait p95 %v <= light %v",
			rh.Sched.QueueWait.P95, rl.Sched.QueueWait.P95)
	}
	if rh.Sched.MaxQueueDepth <= rl.Sched.MaxQueueDepth {
		t.Errorf("overload queue depth %d <= light %d",
			rh.Sched.MaxQueueDepth, rl.Sched.MaxQueueDepth)
	}
}

func TestServeBoundedQueueRejectsUnderOverload(t *testing.T) {
	cfg := tinyServeConfig()
	cfg.Policy = LRU
	cfg.ArrivalRate = 5000
	cfg.MPL = 1
	cfg.QueueDepth = 2
	res := RunServe(tinyDB, cfg)
	if res.Sched.Rejected == 0 {
		t.Fatal("tight queue under overload rejected nothing")
	}
}

func TestServeSLOAttainmentResponds(t *testing.T) {
	cfg := tinyServeConfig()
	cfg.Policy = LRU
	cfg.ArrivalRate = 2000
	cfg.MPL = 2
	loose := cfg
	loose.SLO = time.Hour
	tight := cfg
	tight.SLO = time.Nanosecond
	rl := RunServe(tinyDB, loose)
	rt := RunServe(tinyDB, tight)
	if rl.Sched.SLOAttainment != 1 {
		t.Errorf("1-hour SLO attainment %v, want 1", rl.Sched.SLOAttainment)
	}
	if rt.Sched.SLOAttainment != 0 {
		t.Errorf("1-ns SLO attainment %v, want 0", rt.Sched.SLOAttainment)
	}
}

// Every admission policy must serve the full workload deterministically
// and report a per-tenant breakdown that reconciles with the aggregate.
func TestServeAdmissionPoliciesDeterministicAndAccounted(t *testing.T) {
	for _, adm := range []string{"fifo", "sesf", "wfq"} {
		adm := adm
		t.Run(adm, func(t *testing.T) {
			run := func() *ServeResult {
				cfg := tinyServeConfig()
				cfg.Policy = PBM
				cfg.AdmissionPolicy = adm
				cfg.ArrivalRate = 500 // saturates MPL 4: the policy really orders the queue
				cfg.Tenants = 4
				cfg.TenantWeights = []float64{4, 2, 1, 1}
				return RunServe(tinyDB, cfg)
			}
			a, b := run(), run()
			if a.Sched != b.Sched {
				t.Fatalf("nondeterministic under %s:\n%+v\n%+v", adm, a.Sched, b.Sched)
			}
			if !reflect.DeepEqual(a.Tenants, b.Tenants) {
				t.Fatalf("nondeterministic tenant stats under %s:\n%+v\n%+v", adm, a.Tenants, b.Tenants)
			}
			if len(a.Tenants) != 4 {
				t.Fatalf("tenant stats %+v, want 4 tenants", a.Tenants)
			}
			var sum int64
			for i, ts := range a.Tenants {
				if ts.Tenant != i {
					t.Fatalf("tenant stats out of order: %+v", a.Tenants)
				}
				sum += ts.Completed
			}
			if sum != a.Sched.Completed {
				t.Fatalf("per-tenant completions %d != aggregate %d", sum, a.Sched.Completed)
			}
		})
	}
}

// An explicitly named fifo policy must match the default (empty) policy
// bit for bit — the plumbing introduces no behavioral fork.
func TestServeExplicitFIFOMatchesDefault(t *testing.T) {
	cfg := tinyServeConfig()
	cfg.Policy = PBM
	def := RunServe(tinyDB, cfg)
	cfg.AdmissionPolicy = "fifo"
	named := RunServe(tinyDB, cfg)
	if def.Sched != named.Sched || def.TotalIOBytes != named.TotalIOBytes {
		t.Fatalf("explicit fifo diverged from default:\n%+v\n%+v", def.Sched, named.Sched)
	}
}

// Under saturation, wfq must tilt completed work toward the heavy
// tenant relative to its share under fifo.
func TestServeWFQFavorsWeightedTenant(t *testing.T) {
	base := tinyServeConfig()
	base.Policy = LRU
	base.ArrivalRate = 2000 // all queries arrive nearly at once
	base.MPL = 1
	base.QueueDepth = -1
	base.QueriesPerStream = 4
	base.Tenants = 2
	base.TenantWeights = []float64{8, 1}
	run := func(adm string) *ServeResult {
		cfg := base
		cfg.AdmissionPolicy = adm
		return RunServe(tinyDB, cfg)
	}
	fifo, wfq := run("fifo"), run("wfq")
	// Same workload completes either way; wfq just reorders admissions.
	if fifo.Sched.Completed != wfq.Sched.Completed {
		t.Fatalf("completions diverged: fifo %d, wfq %d", fifo.Sched.Completed, wfq.Sched.Completed)
	}
	// With everything queued at once behind MPL 1, the 8x tenant's tail
	// latency must improve over fifo's interleaved order, and must beat
	// the light tenant's tail within the wfq run.
	if wfq.Tenants[0].P95 >= fifo.Tenants[0].P95 {
		t.Fatalf("heavy tenant p95 under wfq %v >= fifo %v", wfq.Tenants[0].P95, fifo.Tenants[0].P95)
	}
	if wfq.Tenants[0].P95 >= wfq.Tenants[1].P95 {
		t.Fatalf("heavy tenant p95 %v >= light tenant %v under wfq", wfq.Tenants[0].P95, wfq.Tenants[1].P95)
	}
}

func TestServeHigherMPLAdmitsMoreConcurrently(t *testing.T) {
	// With everything arriving at once and a generous queue, a larger MPL
	// must strictly reduce time spent waiting for admission.
	cfg := tinyServeConfig()
	cfg.Policy = CScan
	cfg.ArrivalRate = 5000
	cfg.QueueDepth = -1
	cfg.MPL = 1
	r1 := RunServe(tinyDB, cfg)
	cfg.MPL = 16
	r16 := RunServe(tinyDB, cfg)
	if r16.Sched.QueueWait.Mean >= r1.Sched.QueueWait.Mean {
		t.Errorf("MPL 16 mean queue wait %v >= MPL 1 %v",
			r16.Sched.QueueWait.Mean, r1.Sched.QueueWait.Mean)
	}
	if r1.Sched.Completed != r16.Sched.Completed {
		t.Errorf("unbounded queue lost queries: %d vs %d",
			r1.Sched.Completed, r16.Sched.Completed)
	}
}
