package workload

import (
	"math/rand"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/tpch"
)

// microColumns is the union of columns the microbenchmark queries (Q1 and
// Q6) access on lineitem; the accessed data volume of §4.1 is their total
// byte size (Q6's columns are a subset of Q1's).
var microColumns = []string{
	"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
	"l_discount", "l_tax", "l_shipdate",
}

// MicroAccessedBytes returns the §4.1 accessed data volume for a
// generated database.
func MicroAccessedBytes(db *tpch.DB) int64 {
	snap := db.Snapshot("lineitem")
	cols := make([]int, len(microColumns))
	for i, c := range microColumns {
		cols[i] = db.Col("lineitem", c)
	}
	return snap.TotalBytes(cols)
}

// RunMicro executes the §4.1 microbenchmark: Streams concurrent streams
// of QueriesPerStream queries, each a Q1 or Q6 over a random range whose
// size is drawn from RangePercents, with ThreadsPerQuery-way parallel
// plans (Equation 1 partitioning).
func RunMicro(db *tpch.DB, cfg Config) *Result {
	if cfg.QueriesPerStream <= 0 {
		cfg.QueriesPerStream = 16
	}
	en := newServeEngine(db, ServeConfig{Config: cfg}, MicroAccessedBytes(db))
	// The draws follow cfg, not en.Config(): the serving defaults would
	// fill in a selectivity mix and a query count of their own.
	return en.runStreams(cfg.Streams, func(s int, _ rt.WaitGroup) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(s)*7919))
		for q := 0; q < cfg.QueriesPerStream; q++ {
			pct := cfg.RangePercents[rng.Intn(len(cfg.RangePercents))]
			r := RandRange(rng, en.dom.Rows, pct, cfg.HotFrac, cfg.HotProb)
			kind := "q6"
			if rng.Intn(2) == 0 {
				kind = "q1"
			}
			pred := en.dom.drawWindow(rng, pickSelectivity(rng, cfg.Selectivities))
			plan, err := en.BuildPlan(nil, kind, r, pred)
			if err != nil {
				panic(err)
			}
			exec.Drain(plan)
		}
	}, en.Close)
}

// runStreams runs body once per stream, as concurrent processes of the
// engine's runtime, to completion, and collects the run's metrics: the
// one stream scaffold, shared by the figure drivers and RunServe. A
// stream's time is the clock when its body returns; wg is the run's wait
// group, so processes a body spawns on it are awaited too. done runs
// once every process has finished, before the sharing sampler stops.
func (en *ServeEngine) runStreams(streams int, body func(s int, wg rt.WaitGroup), done func()) *Result {
	streamEnds := make([]sim.Time, streams)
	wg := en.RT.NewWaitGroup()
	stopSampler := en.sharingSampler()
	// Serving starts now: on the real runtime the engine/db setup above
	// already consumed wall time, and the stats window (the throughput
	// and read-bandwidth denominator) must not include it. Zero in sim
	// mode.
	en.openWindow()
	for s := 0; s < streams; s++ {
		s := s
		wg.Add(1)
		en.RT.Go("stream", func() {
			defer wg.Done()
			body(s, wg)
			streamEnds[s] = en.RT.Now()
		})
	}
	en.RT.Go("driver", func() {
		wg.Wait()
		done()
		stopSampler.Fire()
	})
	en.RT.Run()
	return en.finish(streamEnds)
}

// finish collects run metrics once the runtime has drained. streamEnds
// holds each stream's completion time. Every layer's books must balance
// at idle (Check); a violation is an accounting bug, and panics.
func (en *ServeEngine) finish(streamEnds []sim.Time) *Result {
	if err := en.Check(true); err != nil {
		panic(err)
	}
	var sum, max sim.Time
	for _, t := range streamEnds {
		sum += t
		if t > max {
			max = t
		}
	}
	if n := len(streamEnds); n > 0 {
		en.result.AvgStreamSec = (sum / sim.Time(n)).Seconds()
	}
	en.result.MaxStreamSec = max.Seconds()
	en.snapshot(en.result)
	if en.Ctx.Heat != nil {
		en.result.heat = en.Ctx.Heat.Chunks()
	}
	return en.result
}

// sharingSampler starts the Figure 17/18 sampler process; stop it by
// firing the returned event after the streams complete.
func (en *ServeEngine) sharingSampler() rt.Event {
	stop := en.RT.NewEvent()
	if en.cfg.SharingSampler <= 0 || en.PBM == nil {
		return stop
	}
	var done atomic.Bool
	sample := func() {
		counts := en.PBM.SharingVolumes()
		var s SharingSample
		s.T = en.RT.Now()
		s.Bytes[0] = counts[1]
		s.Bytes[1] = counts[2]
		s.Bytes[2] = counts[3]
		s.Bytes[3] = counts[4]
		en.result.Sharing = append(en.result.Sharing, s)
	}
	en.RT.Go("sharing-sampler", func() {
		en.RT.Go("sharing-stop", func() {
			stop.Wait()
			done.Store(true)
		})
		// An early sample catches short runs that finish within the
		// first full interval.
		en.RT.Sleep(en.cfg.SharingSampler / 10)
		if !done.Load() {
			sample()
		}
		for !done.Load() {
			en.RT.Sleep(en.cfg.SharingSampler)
			if done.Load() {
				break
			}
			sample()
		}
		if len(en.result.Sharing) == 0 {
			sample()
		}
	})
	return stop
}

// microPlan builds a parallel Q1 or Q6 plan over the given range: the
// range is statically partitioned per Equation 1, each partition runs the
// scan+select+partial-aggregation subtree, and a final aggregation merges
// them — the Figure 8 plan transformation. The explicit execution context
// lets the serving path bind the whole plan — XChg fan-out included — to
// one query's lifecycle.
func (en *ServeEngine) microPlan(ctx *exec.Ctx, build tpch.ScanBuilder, r exec.RIDRange, useQ1 bool) exec.Op {
	query := tpch.Q6
	if useQ1 {
		query = tpch.Q1
	}
	merged := en.partition(ctx, r, func(pr exec.RIDRange) exec.Op {
		return query([]exec.RIDRange{pr})(en.db, build)
	})
	switch {
	case en.cfg.ThreadsPerQuery <= 1:
		return merged
	case useQ1:
		// Partial Q1 aggregates share the group-by schema: re-aggregate.
		return &exec.HashAggr{
			Child:  merged,
			Groups: []int{0, 1},
			Aggs: []exec.AggSpec{
				{Kind: exec.AggSum, Col: 2}, {Kind: exec.AggSum, Col: 3},
				{Kind: exec.AggSum, Col: 4}, {Kind: exec.AggSum, Col: 5},
				{Kind: exec.AggSum, Col: 9},
			},
		}
	}
	return &exec.HashAggr{Child: merged, Aggs: []exec.AggSpec{{Kind: exec.AggSum, Col: 0}}}
}

// partition runs sub over r on ThreadsPerQuery threads: the subplan
// itself on one thread, otherwise an XChg over the Equation 1 partitions
// of r (§2.2).
func (en *ServeEngine) partition(ctx *exec.Ctx, r exec.RIDRange, sub func(exec.RIDRange) exec.Op) exec.Op {
	threads := en.cfg.ThreadsPerQuery
	if threads <= 1 {
		return sub(r)
	}
	parts := make([]func() exec.Op, 0, threads)
	for _, pr := range exec.PartitionRange(r.Lo, r.Hi, threads) {
		pr := pr
		parts = append(parts, func() exec.Op { return sub(pr) })
	}
	return &exec.XChg{Ctx: ctx, Parts: parts}
}
