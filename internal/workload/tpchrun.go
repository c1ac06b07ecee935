package workload

import (
	"math/rand"

	"repro/internal/exec"
	"repro/internal/rt"
	"repro/internal/tpch"
)

// TPCHAccessedBytes computes the total byte volume of every column the
// 22-query mix touches — the quantity the paper sizes the TPC-H buffer
// pool against (§4.2: 2250 MB = 30% of ~7500 MB accessed).
func TPCHAccessedBytes(db *tpch.DB) int64 {
	type colKey struct {
		table string
		col   string
	}
	seen := make(map[colKey]bool)
	// Building a plan reads nothing, so a builder that records the columns
	// asked for and returns no scan is enough.
	rec := func(table string, cols []string, _ []exec.RIDRange, _ bool) exec.Op {
		for _, c := range cols {
			seen[colKey{table, c}] = true
		}
		return nil
	}
	for _, plan := range tpch.Queries() {
		plan(db, rec)
	}
	var total int64
	for k := range seen {
		snap := db.Snapshot(k.table)
		total += snap.TotalBytes([]int{db.Col(k.table, k.col)})
	}
	return total
}

// RunTPCH executes the §4.2 throughput run: each stream runs all 22
// queries in a stream-specific permutation (as TPC-H qgen does). When
// QueriesPerStream is positive it truncates the permutation (for quick
// runs).
func RunTPCH(db *tpch.DB, cfg Config) *Result {
	en := newServeEngine(db, ServeConfig{Config: cfg}, TPCHAccessedBytes(db))
	build := en.builderCtx(en.Ctx, en.htap.store.View(), nil)
	plans := tpch.Queries()

	return en.runStreams(cfg.Streams, func(s int, _ rt.WaitGroup) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(s)*104729))
		perm := rng.Perm(len(plans))
		limit := len(perm)
		if cfg.QueriesPerStream > 0 && cfg.QueriesPerStream < limit {
			limit = cfg.QueriesPerStream
		}
		for _, qi := range perm[:limit] {
			exec.Drain(plans[qi](db, build))
		}
	}, en.Close)
}
