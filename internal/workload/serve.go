package workload

import (
	"time"

	"repro/internal/exec"
	"repro/internal/iosim"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tpch"
	"repro/wire"
)

// ServeConfig parameterizes an open-loop serving run: Streams client
// streams each generate queries with Poisson inter-arrivals at
// ArrivalRate queries per virtual second, and the scheduler admits them
// under the MPL limit through a bounded queue. The embedded Config
// supplies the engine wiring (policy, pool sizing, bandwidth, cores) and
// the query mix (RangePercents, ThreadsPerQuery), exactly as RunMicro.
type ServeConfig struct {
	Config
	// ArrivalRate is the per-stream mean arrival rate in queries per
	// virtual second (default 8).
	ArrivalRate float64
	// MPL is the scheduler's concurrency limit (default 8).
	MPL int
	// QueueDepth bounds the admission queue (0 => sched.DefaultQueueDepth,
	// negative => unbounded).
	QueueDepth int
	// SLO is the end-to-end latency objective (default 250ms of virtual
	// time; <0 disables).
	SLO sim.Duration
	// ClosedLoop switches the client streams from open-loop to
	// closed-loop issue: each stream still draws the same think-time and
	// query-shape sequence from its rng (the workload is identical), but
	// waits for its query to complete before drawing the next, so an
	// overloaded system slows its own offered load down. Comparing the
	// two disciplines on the same mix is the classic coordinated-omission
	// illustration: closed-loop latencies hide the queueing delay that
	// open-loop clients experience (scanshare.Compare runs both).
	ClosedLoop bool
	// AdmissionPolicy names the scheduler's admission-ordering policy:
	// "fifo" (arrival order, the historical behavior and the default),
	// "sesf" (shortest-expected-scan-first, fed by the exec/pbm cost
	// hook), or "wfq" (per-tenant weighted fair queueing).
	AdmissionPolicy string
	// Tenants is the number of fairness domains the client streams are
	// mapped onto (stream s belongs to tenant s % Tenants; default
	// DefaultTenants). Tenant ids drive wfq's weighted shares and label
	// the per-tenant latency report; under fifo/sesf they are labels
	// only.
	Tenants int
	// TenantWeights assigns wfq fair-share weights by tenant id (index =
	// tenant). Missing or non-positive entries weigh 1.
	TenantWeights []float64
	// Deadline, when positive, arms every query with an end-to-end
	// deadline relative to its arrival: queries still queued past it are
	// dropped with a TimedOut outcome (they never occupy an MPL slot),
	// and executing queries are killed at their next lifecycle check.
	// Zero keeps the historical deadline-free behavior bit-identical.
	Deadline sim.Duration
	// CancelRate is the fraction of queries whose client abandons them
	// mid-flight: each such query draws a cancel delay uniform in [0,
	// SLO) from its stream's rng and is cancelled that long after it was
	// issued, whether it is still queued or already executing. Zero (the
	// default) draws nothing and changes nothing.
	CancelRate float64
	// WriteFrac is the fraction of each stream's queries that are update
	// statements (insert/delete/modify against the lineitem PDT store)
	// instead of scans. Writes are admitted through the same policies and
	// MPL as reads, priced by their delta size, and reported separately
	// (Sched.WriteCompleted / WriteThroughput). Zero — the default —
	// draws no write coin and keeps the read-only stream bit-identical to
	// the historical engine.
	WriteFrac float64
	// CheckpointOps triggers the background checkpoint/merge process:
	// when the committed-but-uncheckpointed delta count reaches it, an
	// online checkpoint materializes the store to a fresh stable snapshot
	// while scans keep serving from their pinned views. Zero never
	// checkpoints (deltas accumulate for the whole run).
	CheckpointOps int
}

// DefaultTenants is the default number of fairness domains streams are
// mapped onto.
const DefaultTenants = 4

// DefaultServeConfig returns serving defaults: 64 streams of 4 queries
// each arriving at 8 qps/stream, MPL 8, a 64-deep fifo admission queue,
// a 250 ms latency SLO and DefaultTenants fairness domains, over the
// §4.1 microbenchmark query mix.
func DefaultServeConfig() ServeConfig {
	cfg := DefaultMicroConfig()
	cfg.Streams = 64
	cfg.QueriesPerStream = 4
	cfg.ThreadsPerQuery = 1
	return ServeConfig{
		Config:      cfg,
		ArrivalRate: 8,
		MPL:         8,
		QueueDepth:  sched.DefaultQueueDepth,
		SLO:         250 * time.Millisecond,
	}
}

// ServeResult reports one serving run: the engine-level Result (I/O
// volume, pool stats) plus the scheduler's latency and throughput
// accounting, overall and per tenant.
type ServeResult struct {
	Result
	Sched sched.Stats
	// Tenants is the per-tenant completion/p95/SLO breakdown, indexed by
	// tenant id (one entry per configured tenant).
	Tenants []sched.TenantStat
	// ElapsedSec is the run's makespan in (virtual or wall) seconds, the
	// denominator of the achieved aggregate read bandwidth.
	ElapsedSec float64
	// Checkpoints counts completed online checkpoint/merge cycles.
	Checkpoints int
	// MergeP95 is the p95 end-to-end latency of read queries whose
	// lifetime overlapped a checkpoint/merge window — zero when no
	// checkpoint ran or no read overlapped one.
	MergeP95 sim.Duration
}

// RunServe executes an open-loop serving run over the microbenchmark
// query mix (Q1/Q6 over random ranges). Unlike RunMicro's closed loop —
// where each stream issues its next query only after the previous one
// finishes — clients here generate queries on a Poisson arrival process
// regardless of completion, so overload manifests as queue wait,
// admission-queue growth, and ultimately rejections, the serving regime
// the paper's fixed-stream experiments do not cover.
//
// It is the in-process transport of the serving core: a Generator draws
// each stream's queries and a ServeEngine admits, plans and executes
// them, on the simulator or the real-threaded runtime. A tiered-temp
// configuration runs twice: a profiling pass counts the per-chunk access
// heat under round-robin placement, then the measured run places the
// hottest chunks on the fast tier.
func RunServe(db *tpch.DB, cfg ServeConfig) *ServeResult {
	if cfg.Tier == "tiered-temp" && !cfg.collectHeat {
		prof := cfg
		prof.collectHeat = true
		cfg.chunkPlacement = iosim.TemperaturePlacement(RunServe(db, prof).heat, cfg.Devices, cfg.fastDevices())
	}
	en := NewServeEngine(db, cfg)
	var res *ServeResult
	result := en.runStreams(en.Config().Streams, en.serveStream(), func() {
		en.Close()
		res = en.Stats()
	})
	res.Result = *result
	return res
}

// serveStream is RunServe's stream body for runStreams: stream s draws
// its queries from a Generator over the engine's configuration and runs
// each on the engine in process.
func (en *ServeEngine) serveStream() func(s int, wg rt.WaitGroup) {
	gen := NewGenerator(en.Config(), en.Domain())
	return func(s int, wg rt.WaitGroup) {
		st := gen.Stream(s)
		st.Drive(en.RT, wg, func(q int, d Draw, qc *exec.QueryCtx) func() {
			req := en.Request(s, q, st.Tenant, d, qc)
			return func() { en.Run(req, d) }
		})
	}
}

// ServeRowOf flattens one serving result into the serve-table row, in
// the wire schema. The axis labels are read off the effective
// configuration that ran, one axis-table row at a time; the sweep uses
// it per cell, and so does scanserved's /statz endpoint for its live
// engine.
func ServeRowOf(res *ServeResult, cfg ServeConfig) wire.ServeStats {
	ms := func(d sim.Duration) float64 { return float64(d) / 1e6 }
	mb := func(b int64) float64 { return float64(b) / 1e6 }
	row := wire.ServeStats{
		Completed:   res.Sched.Completed,
		Rejected:    res.Sched.Rejected,
		TimedOut:    res.Sched.TimedOut,
		Cancelled:   res.Sched.Cancelled,
		Throughput:  res.Sched.Throughput,
		P50ms:       ms(res.Sched.Latency.P50),
		P95ms:       ms(res.Sched.Latency.P95),
		P99ms:       ms(res.Sched.Latency.P99),
		QWaitP95ms:  ms(res.Sched.QueueWait.P95),
		SLOPct:      res.Sched.SLOAttainment * 100,
		IOMB:        mb(res.TotalIOBytes),
		Seeks:       res.DiskStats.Seeks,
		Skew:        1,
		Writes:      res.Sched.WriteCompleted,
		WrQps:       res.Sched.WriteThroughput,
		Checkpoints: res.Checkpoints,
		MergeP95ms:  ms(res.MergeP95),
	}
	cfg = cfg.withDefaults()
	for _, f := range new(ServeAxes).flagTable(false) {
		if f.label != nil {
			f.label(&row, &cfg)
		}
	}
	if res.Sched.Arrived > 0 {
		row.ToPct = 100 * float64(res.Sched.TimedOut) / float64(res.Sched.Arrived)
		row.CanPct = 100 * float64(res.Sched.Cancelled) / float64(res.Sched.Arrived)
	}
	if res.RequestedTuples > 0 {
		row.SkipPct = 100 * float64(res.SkippedTuples) / float64(res.RequestedTuples)
	}
	if res.ElapsedSec > 0 {
		row.ReadMBps = mb(res.DiskStats.BytesRead) / res.ElapsedSec
	}
	if n := len(res.DiskStats.PerDevice); n > 0 && res.DiskStats.BytesRead > 0 {
		row.Skew = float64(res.DiskStats.MaxDeviceBytes) * float64(n) / float64(res.DiskStats.BytesRead)
	}
	for _, ts := range res.Tenants {
		row.TenantP95ms = append(row.TenantP95ms, ms(ts.P95))
		row.TenantSLOPct = append(row.TenantSLOPct, ts.SLOAttainment*100)
	}
	return row
}
