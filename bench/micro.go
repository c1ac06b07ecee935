package main

import (
	"runtime"
	"time"

	"repro/internal/abm"
	"repro/internal/buffer"
	"repro/internal/iosim"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// modelPrint is everything a RunMicro rep reports on the virtual clock and
// in layer counts. The simulator is deterministic, so every rep of a run
// must produce the same print to the last bit.
type modelPrint struct {
	ioBytes      int64
	avgStreamSec float64
	maxStreamSec float64
	pool         buffer.Stats
	abm          abm.Stats
	disk         iosim.Stats
}

func printOf(r *workload.Result) modelPrint {
	return modelPrint{r.TotalIOBytes, r.AvgStreamSec, r.MaxStreamSec, r.PoolStats, r.ABMStats, r.DiskStats.Stats}
}

// microConfig is the paper's §4.1 point: 8 streams of 16 Q1/Q6 queries
// over {1,10,50,100}% ranges, 8 threads per query, pool 40% of the
// accessed bytes, 700 MB/s, one shard. The query mix is frozen at mixSeed,
// which reproduces the figures' numbers: across mix seeds the 128
// heavy-tailed queries move host_qps by ±25% and the I/O volume threefold,
// so --seed regenerates the data and leaves the mix alone.
func microConfig(o options, p workload.Policy) workload.Config {
	cfg := workload.DefaultMicroConfig()
	cfg.Policy = p
	cfg.Seed = mixSeed
	if o.microQueries > 0 {
		cfg.QueriesPerStream = o.microQueries
	}
	return cfg
}

func runMicroWorkload(res *result, o options) error {
	policy := workload.PBM
	if o.workload == "micro-cscan" {
		policy = workload.CScan
	}
	cfg := microConfig(o, policy)
	queries := float64(cfg.Streams * cfg.QueriesPerStream)

	// Set-up is data generation alone: a sim rep builds its whole engine
	// inside RunMicro, and a warm-up rep buys nothing (first and second
	// rep differ by under 1%).
	reps := setupReps
	if o.trace {
		reps = 1
	}
	var db *tpch.DB
	var setups []float64
	for i := 0; i < reps; i++ {
		db = nil
		runtime.GC()
		t0 := time.Now()
		db = tpch.Generate(o.sf, o.seed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.phase("setup")
	if o.trace {
		return microTraced(res, o, db, cfg, queries, setups[0])
	}

	runtime.GC()
	var times []float64
	var first modelPrint
	start := time.Now()
	// Reps until the window is as close to --seconds as whole reps get:
	// stop before a rep that would overshoot by more than it falls short.
	for rep := 0; rep < 2 || time.Since(start).Seconds()+median(times)/2 < o.seconds; rep++ {
		t0 := time.Now()
		r := workload.RunMicro(db, cfg)
		times = append(times, time.Since(t0).Seconds())
		res.Attempted += int64(queries)
		if p := printOf(r); rep == 0 {
			first = p
		} else if p != first {
			res.fail("rep %d: model metrics differ from rep 0: %+v vs %+v", rep, p, first)
			res.Failed += int64(queries)
		}
	}
	res.phase("window")

	// The unit of work a simulator user waits for is a whole rep, so the
	// latency is a rep's, and the handful of reps in a window supports its
	// median and no higher percentile.
	med := median(times)
	res.set("setup_s", median(setups))
	res.set("host_qps", queries/med)
	res.set("host_p50_ms", med*1e3)
	res.set("peak_rss_mb", peakRSSMB())
	res.set("model.io_mb", float64(first.ioBytes)/1e6)
	res.set("model.stream_s", first.avgStreamSec)
	res.Samples["host_qps"], res.Samples["host_p50_ms"] = len(times), len(times)
	res.Samples["setup_s"] = len(setups)
	return nil
}

// microTraced is the traced run: one untraced rep for the overhead base,
// one rep under the CPU profiler (and, for PBM, the page-reference
// recorder Belady's OPT replays), and one LRU rep for the paper's
// ordering check.
func microTraced(res *result, o options, db *tpch.DB, cfg workload.Config, queries, generateS float64) error {
	tr := newTracer()
	runtime.GC()
	t0 := time.Now()
	base := workload.RunMicro(db, cfg)
	baseS := time.Since(t0).Seconds()
	res.phase("untraced_rep")

	traced := cfg
	traced.TraceForOPT = cfg.Policy == workload.PBM
	runtime.GC()
	proc0 := sampleProc()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	sp := tr.begin("workload.run", 0)
	t0 = time.Now()
	r := workload.RunMicro(db, traced)
	tracedS := time.Since(t0).Seconds()
	tr.end(sp)
	cpu, err := prof.stop()
	if err != nil {
		return err
	}
	proc1 := sampleProc()
	res.phase("traced_rep")
	res.Attempted = int64(2 * queries)
	if printOf(r) != printOf(base) {
		res.fail("traced rep's model metrics differ from the untraced rep's: %+v vs %+v", printOf(r), printOf(base))
	}

	lruCfg := cfg
	lruCfg.Policy = workload.LRU
	sp = tr.begin("workload.run", 0)
	lru := workload.RunMicro(db, lruCfg)
	tr.end(sp)
	res.phase("lru_rep")
	if r.TotalIOBytes > lru.TotalIOBytes {
		res.fail("ordering: %s loaded %d bytes, more than LRU's %d", r.Policy, r.TotalIOBytes, lru.TotalIOBytes)
	}
	if traced.TraceForOPT {
		opt := r.OPTIOBytes()
		if opt <= 0 || opt > r.TotalIOBytes {
			res.fail("ordering: OPT loaded %d bytes, PBM %d", opt, r.TotalIOBytes)
		} else {
			res.set("model.io_over_opt", float64(r.TotalIOBytes)/float64(opt))
		}
		res.phase("opt_replay")
	}

	res.set("model.io_mb", float64(r.TotalIOBytes)/1e6)
	res.set("model.stream_s", r.AvgStreamSec)
	setDiskCounts(res, r.DiskStats.Stats)
	if cfg.Policy == workload.CScan {
		setABMCounts(res, r.ABMStats) // Cooperative Scans have no page pool
	} else {
		setPoolCounts(res, r.PoolStats)
	}
	res.set("tpch.generate_s", generateS)
	res.set("bench.trace_overhead_pct", 100*(tracedS-baseS)/baseS)
	setCPULayers(res, cpu)
	setRuntime(res, proc0, proc1, queries)
	res.spans = tr.spans()
	return setLayerCosts(res, o)
}

func setDiskCounts(res *result, d iosim.Stats) {
	res.set("iosim.requests", float64(d.Requests))
	res.set("iosim.seeks", float64(d.Seeks))
	res.set("iosim.read_mb", float64(d.BytesRead)/1e6)
	res.set("iosim.busy_s", d.BusyTime.Seconds())
	res.set("iosim.max_queue", float64(d.MaxQueueLen))
	res.set("iosim.skipped", float64(d.Skipped))
}

func setPoolCounts(res *result, p buffer.Stats) {
	res.set("buffer.hits", float64(p.Hits))
	res.set("buffer.misses", float64(p.Misses))
	if refs := p.Hits + p.Misses; refs > 0 {
		res.set("buffer.hit_ratio", float64(p.Hits)/float64(refs))
	}
	res.set("buffer.evictions", float64(p.Evictions))
	res.set("buffer.stalls", float64(p.Stalls))
}

func setABMCounts(res *result, a abm.Stats) {
	res.set("abm.chunks_loaded", float64(a.ChunksLoaded))
	res.set("abm.deliveries", float64(a.Deliveries))
	if a.ChunksLoaded > 0 {
		res.set("abm.share_ratio", float64(a.Deliveries)/float64(a.ChunksLoaded))
	}
	res.set("abm.blocked_loads", float64(a.BlockedLoads))
	res.set("abm.evicted_mb", float64(a.BytesEvicted)/1e6)
}
