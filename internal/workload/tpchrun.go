package workload

import (
	"math/rand"

	"repro/internal/exec"
	"repro/internal/rt"
	"repro/internal/storage"
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
	// Dry-run every plan with a recording builder that performs no I/O.
	rec := func(table string, cols []string, ranges []exec.RIDRange, inOrder bool) exec.Op {
		types := make([]storage.ColumnType, len(cols))
		for i, c := range cols {
			seen[colKey{table, c}] = true
			types[i] = db.Snapshot(table).Table().Schema[db.Col(table, c)].Type
		}
		return &nullScan{types: types}
	}
	for _, plan := range tpch.Queries() {
		op := plan(db, rec)
		op.Open()
		op.Close()
	}
	var total int64
	for k := range seen {
		snap := db.Snapshot(k.table)
		total += snap.TotalBytes([]int{db.Col(k.table, k.col)})
	}
	return total
}

// nullScan is an empty relation with a given schema (dry runs).
type nullScan struct{ types []storage.ColumnType }

func (n *nullScan) Open()                        {}
func (n *nullScan) Next() *exec.Batch            { return nil }
func (n *nullScan) Close()                       {}
func (n *nullScan) Schema() []storage.ColumnType { return n.types }

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
