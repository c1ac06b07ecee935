// Package workload drives the paper's experiments: concurrent query
// streams over the simulated engine under each buffer-management policy,
// measuring average stream time and total I/O volume (§4), plus the
// sharing-potential analysis of Figures 17 and 18.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/abm"
	"repro/internal/buffer"
	"repro/internal/exec"
	"repro/internal/iosim"
	"repro/internal/opt"
	"repro/internal/pbm"
	"repro/internal/rt"
	"repro/internal/sim"
)

// Policy selects the buffer-management strategy under test.
type Policy int

// Policies compared in the paper's evaluation (plus the classic MRU/Clock
// baselines and the PBM/LRU future-work variant).
const (
	LRU Policy = iota
	MRU
	Clock
	PBM
	PBMLRU
	CScan
)

// policyNames is the buffer-policy menu: what Policy.String prints and
// ParsePolicy reads back.
var policyNames = [...]string{LRU: "LRU", MRU: "MRU", Clock: "Clock", PBM: "PBM", PBMLRU: "PBM/LRU", CScan: "CScans"}

func (p Policy) String() string {
	if p >= 0 && int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Policies enumerates every buffer-management policy, in declaration
// order.
func Policies() []Policy { return []Policy{LRU, MRU, Clock, PBM, PBMLRU, CScan} }

// ParsePolicy maps a buffer-policy name (as Policy.String prints it,
// case-insensitively, with '-' accepted for '/') back to its constant —
// the inverse command-line binaries need; the error lists the menu.
func ParsePolicy(name string) (Policy, error) {
	var menu []string
	for _, p := range Policies() {
		if strings.EqualFold(strings.ReplaceAll(name, "-", "/"), p.String()) {
			return p, nil
		}
		menu = append(menu, p.String())
	}
	return 0, fmt.Errorf("unknown policy %q (valid: %s)", name, strings.Join(menu, ", "))
}

// Config parameterizes one experiment run.
type Config struct {
	Policy Policy
	// BufferFrac sizes the pool as a fraction of the accessed data
	// volume (the x-axis of Figures 11 and 14).
	BufferFrac float64
	// BandwidthMB is the simulated disk bandwidth in MB/s (Figures 12/15).
	BandwidthMB float64
	// Streams is the number of concurrent query streams (Figures 13/16).
	Streams int
	// QueriesPerStream is the batch length per stream (16 in §4.1).
	QueriesPerStream int
	// ThreadsPerQuery is the XChg fan-out for parallelizable plans (§2.2).
	ThreadsPerQuery int
	// Cores is the CPU core count of the simulated machine.
	Cores int
	// PerTupleCPU is the virtual CPU cost per scanned tuple.
	PerTupleCPU sim.Duration
	// Seed drives all randomized workload choices.
	Seed int64
	// ChunkTuples is the ABM chunk granularity.
	ChunkTuples int64
	// RangePercents is the menu of scan-range sizes (percent of table)
	// the microbenchmark draws from.
	RangePercents []int
	// Selectivities is the menu of predicate selectivities the query
	// generator draws from: each query gets an l_shipdate window spanning
	// that fraction of the date domain, pushed down to the scan for
	// zone-map data skipping. Empty (the default) and entries >= 1 mean
	// unrestricted scans and change nothing — runs stay bit-identical to
	// the pre-skipping engine.
	Selectivities []float64
	// TraceForOPT records the page reference trace (order-preserving
	// policies only) so the caller can replay it under Belady's OPT.
	TraceForOPT bool
	// SharingSampler, when positive, samples the sharing-potential
	// histogram every interval (PBM-family policies only).
	SharingSampler sim.Duration
	// Devices is the number of independent spindles in the striped disk
	// array; 0 (and 1) mean the single-device model the paper's figures
	// are reproduced with. Each device keeps the full BandwidthMB, so
	// aggregate sequential bandwidth scales with the device count.
	Devices int
	// StripeChunk is the array's striping granularity in blocks (pages);
	// 0 means iosim.DefaultStripeChunk. Ignored when Devices <= 1.
	StripeChunk int
	// ReadAheadTuples overrides the scans' per-column read-ahead window
	// when positive (default 8192 tuples). Deeper read-ahead turns into
	// longer load batches, which is what a striped array fans out across
	// its spindles.
	ReadAheadTuples int64
	// IOScheduler selects the device queue discipline
	// (iosim.Config.Scheduler): "" or "fifo" keeps the historical FIFO
	// service bit-identical; "elevator" runs a C-SCAN sweep per spindle.
	IOScheduler string
	// Tier is the array's tiering: "" or "flat" keeps every spindle
	// identical; "tiered-rr" makes the first half of the devices (at
	// least one) an SSD-like fast tier (iosim.ArrayConfig.FastDevices)
	// under round-robin chunk striping; "tiered-temp", which only RunServe
	// places (the closed-loop experiments run it as tiered-rr),
	// additionally puts the hottest stripe chunks on the fast tier, from
	// a profiling pass RunServe runs first.
	Tier string
	// chunkPlacement and collectHeat wire tiered-temp's profiling pass:
	// the pass counts the scans' access heat per stripe chunk
	// (Result.heat), the measured run stripes by the placement built from
	// it (iosim.ArrayConfig.ChunkPlacement).
	chunkPlacement []int
	collectHeat    bool
	// HotFrac and HotProb skew the microbenchmark's range starts: with
	// probability HotProb a query's scan range is drawn inside the first
	// HotFrac of the table, concentrating access heat there. HotFrac <= 0
	// (the default) draws nothing extra and keeps the historical uniform
	// rng sequence bit-identical.
	HotFrac float64
	HotProb float64
	// Real selects the real-threaded wall-clock runtime instead of the
	// deterministic simulator: streams and XChg producers run as
	// goroutines, and the disk and CPU models price their work in real
	// sleeps, on Cores modelled cores as in the simulator. Results are NOT
	// reproducible run-to-run; figures and regression tests stay on the
	// simulator.
	Real bool
}

// fastDevices is the fast-tier spindle count Tier asks for.
func (cfg Config) fastDevices() int {
	switch cfg.Tier {
	case "", "flat":
		return 0
	case "tiered-rr", "tiered-temp":
		return max(cfg.Devices/2, 1)
	}
	panic(fmt.Sprintf("workload: unknown tier %q (want flat, tiered-rr or tiered-temp)", cfg.Tier))
}

// DefaultMicroConfig returns §4.1's defaults: 8 streams, 16-query
// batches, buffer 40% of accessed volume, 700 MB/s, 8 threads/query.
func DefaultMicroConfig() Config {
	return Config{
		Policy:           PBM,
		BufferFrac:       0.4,
		BandwidthMB:      700,
		Streams:          8,
		QueriesPerStream: 16,
		ThreadsPerQuery:  8,
		Cores:            8,
		PerTupleCPU:      60 * time.Nanosecond,
		Seed:             42,
		// Chunks are sized relative to the scaled-down tables: ~0.7% of
		// lineitem at the default SF, matching the paper's chunk/table
		// ratio on its 30 GB dataset.
		ChunkTuples:   2048,
		RangePercents: []int{1, 10, 50, 100},
	}
}

// DefaultTPCHConfig returns §4.2's defaults: buffer 30% of accessed
// volume, 600 MB/s, 8 streams.
func DefaultTPCHConfig() Config {
	cfg := DefaultMicroConfig()
	cfg.BufferFrac = 0.3
	cfg.BandwidthMB = 600
	cfg.QueriesPerStream = 0 // one pass over all 22 queries
	return cfg
}

// SharingSample is one point of the Figure 17/18 series: the byte volume
// currently wanted by exactly 1, 2, 3, and >=4 active scans.
type SharingSample struct {
	T     sim.Time
	Bytes [4]int64 // index 0 => 1 scan, 3 => >=4 scans
}

// Result reports one experiment run.
type Result struct {
	Policy        string
	AvgStreamSec  float64
	MaxStreamSec  float64
	TotalIOBytes  int64
	AccessedBytes int64
	BufferBytes   int64
	Trace         []opt.Ref
	Sharing       []SharingSample
	PoolStats     buffer.Stats
	ABMStats      abm.Stats
	// DiskStats is the device array's aggregate and per-device report,
	// including the stripe-skew (max/min device bytes) counters.
	DiskStats iosim.ArrayStats
	// RequestedTuples and SkippedTuples are the zone-map pruning
	// counters: tuples requested by predicate-carrying scans, and the
	// subset proven irrelevant and skipped before any I/O was scheduled.
	// Both zero when no selectivity axis is configured.
	RequestedTuples int64
	SkippedTuples   int64
	// heat is the run's per-stripe-chunk access heat, counted only by a
	// profiling pass (Config.collectHeat).
	heat []float64
}

// OPTIOBytes replays the run's trace under Belady's OPT (§4's
// methodology) and returns the optimal I/O volume for the same buffer.
func (r *Result) OPTIOBytes() int64 {
	if len(r.Trace) == 0 {
		return 0
	}
	return opt.Simulate(r.Trace, r.BufferBytes).BytesLoaded
}

// simScanSpeed is the scan speed, in tuples per second, the engine
// assumes for the scaled-down data before it has observed one: PBM's
// default speed estimate, the admission cost model of the policies that
// run no PBM, and the checkpoint merge's rewrite rate. One value, so
// fifo/sesf/wfq comparisons across buffer policies see commensurate cost
// estimates.
const simScanSpeed = 1e8

// Engine is one wired engine instance: a device array, a buffer manager
// (a pool under a replacement policy, or the ABM under Cooperative
// Scans) and the execution context plans run against, all on one
// runtime.
type Engine struct {
	RT   rt.Runtime
	Disk *iosim.DeviceArray
	Pool *buffer.Pool // nil under CScan
	PBM  *pbm.PBM     // non-nil under PBM/PBMLRU: the pool's policy
	ABM  *abm.ABM     // non-nil under CScan
	Ctx  *exec.Ctx
}

// NewEngine wires an engine for cfg with a buffer of bufferBytes, on the
// simulator or (cfg.Real) on real threads: the one constructor behind
// every experiment, the serving engine and the library's System, so they
// all run — and measure — the same device model, read-ahead and PBM
// timeline. It reads cfg's engine fields only (policy, devices, cores,
// ...), not the workload's.
func NewEngine(cfg Config, bufferBytes int64) Engine {
	var e Engine
	if cfg.Real {
		e.RT = rt.NewReal()
	} else {
		e.RT = rt.Sim(sim.NewEngine())
	}
	r := e.RT
	base := iosim.Config{
		Bandwidth:   cfg.BandwidthMB * 1e6,
		SeekLatency: 50 * time.Microsecond,
		Scheduler:   cfg.IOScheduler,
	}
	e.Disk = iosim.NewArray(r, iosim.ArrayConfig{
		Config:         base,
		Devices:        cfg.Devices,
		StripeChunk:    cfg.StripeChunk,
		FastDevices:    cfg.fastDevices(),
		ChunkPlacement: cfg.chunkPlacement,
	})
	ra := cfg.ReadAheadTuples
	if ra <= 0 {
		ra = 8192
	}
	e.Ctx = &exec.Ctx{
		RT:              r,
		CPU:             exec.NewCPU(r, cfg.Cores),
		PerTupleCPU:     cfg.PerTupleCPU,
		ReadAheadTuples: ra,
	}
	if cfg.collectHeat {
		e.Ctx.Heat = exec.NewChunkHeat(cfg.StripeChunk)
	}
	switch cfg.Policy {
	case CScan:
		e.ABM = abm.New(r, e.Disk, abm.Config{
			ChunkTuples: cfg.ChunkTuples,
			Capacity:    bufferBytes,
		})
		e.Ctx.ABM = e.ABM
	default:
		var policy buffer.Policy
		switch cfg.Policy {
		case LRU:
			policy = buffer.NewLRU()
		case MRU:
			policy = buffer.NewMRU()
		case Clock:
			policy = buffer.NewClock()
		case PBM, PBMLRU:
			pc := pbm.DefaultConfig()
			// The bucket timeline must resolve the simulation's
			// timescale: queries at the scaled-down data volume finish in
			// milliseconds, so a paper-scale 100 ms slice would fold all
			// estimates into bucket zero.
			pc.TimeSlice = 500 * time.Microsecond
			pc.NumGroups = 12
			pc.DefaultSpeed = simScanSpeed
			pc.LRUMode = cfg.Policy == PBMLRU
			e.PBM = pbm.New(r, pc)
			policy = e.PBM
			e.Ctx.PBM = e.PBM
		}
		e.Pool = buffer.NewPool(r, e.Disk, policy, bufferBytes)
		e.Ctx.Pool = e.Pool
	}
	return e
}

// RandRange picks a random scan range of pct% of n tuples, starting at a
// random position (clipped at the end of the table), per §4.1 — with an
// access-skew overlay: with probability hotProb the range start is drawn
// inside the first hotFrac of the table, concentrating heat there (the
// workload shape temperature-based tiering exploits). hotFrac <= 0 or
// hotProb <= 0 draws no coin and consumes exactly the uniform draw,
// keeping disabled runs bit-identical.
func RandRange(rng *rand.Rand, n int64, pct int, hotFrac, hotProb float64) exec.RIDRange {
	span := n * int64(pct) / 100
	if span < 1 {
		span = 1
	}
	maxStart := n - span
	var start int64
	if maxStart > 0 {
		limit := maxStart
		if hotFrac > 0 && hotProb > 0 && rng.Float64() < hotProb {
			if hotMax := int64(float64(n)*hotFrac) - span; hotMax < limit {
				limit = hotMax
			}
		}
		if limit > 0 {
			start = rng.Int63n(limit)
		}
	}
	return exec.RIDRange{Lo: start, Hi: start + span}
}
