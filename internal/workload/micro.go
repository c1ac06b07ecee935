package workload

import (
	"math/rand"

	"repro/internal/exec"
	"repro/internal/pdt"
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
	accessed := MicroAccessedBytes(db)
	e := newEnv(cfg, accessed)
	if anySelective(cfg.Selectivities) {
		e.setupSkipping(db)
	}
	n := db.Snapshot("lineitem").NumTuples()

	return e.runStreams(cfg.Streams, func(s int) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(s)*7919))
		for q := 0; q < cfg.QueriesPerStream; q++ {
			pct := cfg.RangePercents[rng.Intn(len(cfg.RangePercents))]
			r := RandRange(rng, n, pct, cfg.HotFrac, cfg.HotProb)
			useQ1 := rng.Intn(2) == 0
			pred := e.drawWindow(rng, pickSelectivity(rng, cfg.Selectivities))
			exec.Drain(e.microPlanCtx(e.Ctx, db, e.builderCtx(db, e.Ctx, pdt.View{}, pred), r, useQ1))
		}
	})
}

// runStreams runs body once per stream, as concurrent processes of the
// run's runtime, to completion, and collects the run's metrics: the
// closed-loop scaffold RunMicro and RunTPCH share.
func (e *env) runStreams(streams int, body func(s int)) *Result {
	streamEnds := make([]sim.Time, streams)
	wg := e.RT.NewWaitGroup()
	stopSampler := e.sharingSampler()
	for s := 0; s < streams; s++ {
		s := s
		wg.Add(1)
		e.RT.Go("stream", func() {
			defer wg.Done()
			body(s)
			streamEnds[s] = e.RT.Now()
		})
	}
	e.RT.Go("driver", func() {
		wg.Wait()
		stopSampler.Fire()
		if e.ABM != nil {
			e.ABM.Stop()
		}
	})
	e.RT.Run()
	return e.finish(streamEnds)
}

// microPlanCtx builds a parallel Q1 or Q6 plan over the given range: the
// range is statically partitioned per Equation 1, each partition runs the
// scan+select+partial-aggregation subtree, and a final aggregation merges
// them — the Figure 8 plan transformation. The explicit execution context
// lets the serving path bind the whole plan — XChg fan-out included — to
// one query's lifecycle.
func (e *env) microPlanCtx(ctx *exec.Ctx, db *tpch.DB, build tpch.ScanBuilder, r exec.RIDRange, useQ1 bool) exec.Op {
	threads := e.cfg.ThreadsPerQuery
	if threads <= 1 {
		if useQ1 {
			return tpch.Q1([]exec.RIDRange{r})(db, build)
		}
		return tpch.Q6([]exec.RIDRange{r})(db, build)
	}
	parts := make([]func() exec.Op, 0, threads)
	for _, pr := range exec.PartitionRange(r.Lo, r.Hi, threads) {
		pr := pr
		parts = append(parts, func() exec.Op {
			if useQ1 {
				return tpch.Q1([]exec.RIDRange{pr})(db, build)
			}
			return tpch.Q6([]exec.RIDRange{pr})(db, build)
		})
	}
	merged := e.parallelCtx(ctx, parts)
	if useQ1 {
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
