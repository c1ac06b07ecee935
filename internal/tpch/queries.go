package tpch

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/storage"
)

// ScanBuilder abstracts how a query plan obtains its scans, so the same
// plan runs over a traditional Scan (LRU/PBM pools) or a CScan (ABM).
// cols are column names of the table; ranges are RID ranges (nil = full
// table). Every plan here tolerates tuples in any order, so inOrder is
// false at every call; a builder refuses true, since a CScan has no
// in-order mode. The parameter stays for callers compiled against it.
type ScanBuilder func(table string, cols []string, ranges []exec.RIDRange, inOrder bool) exec.Op

// Plan is a ready-to-run query plan factory.
type Plan func(db *DB, build ScanBuilder) exec.Op

// col looks up the output position of a named column within the column
// list given to the scan builder.
func col(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	panic(fmt.Sprintf("tpch: column %q not in scan list", name))
}

func icol(cols []string, name string) exec.Col {
	return exec.Col{Idx: col(cols, name), T: storage.Int64}
}

func fcol(cols []string, name string) exec.Col {
	return exec.Col{Idx: col(cols, name), T: storage.Float64}
}

// addKeys is an exec.Apply hook that adds int64 column c of each batch to
// set.
func addKeys(set map[int64]bool, c int) func(*exec.Batch) {
	return func(b *exec.Batch) {
		for _, k := range b.Vecs[c].I64[:b.N] {
			set[k] = true
		}
	}
}

// Q1 is TPC-H Q1 (pricing summary report): a pure scan of lineitem with a
// shipdate cutoff, grouped by returnflag/linestatus. Used both in the
// microbenchmark and the throughput run. Its projection runs in two
// stages, so each tuple's disc_price = l_extendedprice·(1 − l_discount)
// is computed once: the first stage computes it, the second reads it for
// charge = disc_price·(1 + l_tax).
func Q1(ranges []exec.RIDRange) Plan {
	cols := []string{"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate"}
	return func(db *DB, build ScanBuilder) exec.Op {
		scan := build("lineitem", cols, ranges, false)
		sel := &exec.Select{
			Child: scan,
			Pred:  exec.NewCmp("<=", icol(cols, "l_shipdate"), exec.ConstI(DateMax-90)),
		}
		// returnflag, linestatus, quantity, extendedprice, disc_price,
		// discount, tax.
		discPrice := &exec.Project{
			Child: sel,
			Exprs: []exec.Expr{
				exec.Col{Idx: 0, T: storage.String}, exec.Col{Idx: 1, T: storage.String},
				fcol(cols, "l_quantity"), fcol(cols, "l_extendedprice"),
				revenueExpr(cols),
				fcol(cols, "l_discount"), fcol(cols, "l_tax"),
			},
		}
		f := func(i int) exec.Col { return exec.Col{Idx: i, T: storage.Float64} }
		proj := &exec.Project{
			Child: discPrice,
			Exprs: []exec.Expr{
				exec.Col{Idx: 0, T: storage.String}, exec.Col{Idx: 1, T: storage.String},
				f(2), f(3), f(4),
				exec.NewArith("*", f(4), exec.NewArith("+", exec.ConstF(1), f(6))),
				f(5),
			},
		}
		return &exec.HashAggr{
			Child:  proj,
			Groups: []int{0, 1},
			Aggs: []exec.AggSpec{
				{Kind: exec.AggSum, Col: 2}, {Kind: exec.AggSum, Col: 3},
				{Kind: exec.AggSum, Col: 4}, {Kind: exec.AggSum, Col: 5},
				{Kind: exec.AggAvg, Col: 2}, {Kind: exec.AggAvg, Col: 3},
				{Kind: exec.AggAvg, Col: 6}, {Kind: exec.AggCount},
			},
		}
	}
}

// Q6 is TPC-H Q6 (forecasting revenue change): highly selective scan of
// lineitem, global aggregate. The second microbenchmark query.
func Q6(ranges []exec.RIDRange) Plan {
	cols := []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"}
	return func(db *DB, build ScanBuilder) exec.Op {
		scan := build("lineitem", cols, ranges, false)
		sel := &exec.Select{
			Child: scan,
			Pred: exec.NewAnd(
				exec.Between(icol(cols, "l_shipdate"), Date(1994, 1, 1), Date(1995, 1, 1)-1),
				exec.NewCmp(">=", fcol(cols, "l_discount"), exec.ConstF(0.05)),
				exec.NewCmp("<=", fcol(cols, "l_discount"), exec.ConstF(0.07)),
				exec.NewCmp("<", fcol(cols, "l_quantity"), exec.ConstF(24)),
			),
		}
		proj := &exec.Project{
			Child: sel,
			Exprs: []exec.Expr{exec.NewArith("*", fcol(cols, "l_extendedprice"), fcol(cols, "l_discount"))},
		}
		return &exec.HashAggr{Child: proj, Aggs: []exec.AggSpec{{Kind: exec.AggSum, Col: 0}}}
	}
}

// revenueExpr computes extendedprice*(1-discount) over a scan column list.
func revenueExpr(cols []string) exec.Expr {
	return exec.NewArith("*", fcol(cols, "l_extendedprice"),
		exec.NewArith("-", exec.ConstF(1), fcol(cols, "l_discount")))
}

// nationScan builds the tiny nation dimension scan.
func nationScan(build ScanBuilder) (exec.Op, []string) {
	cols := []string{"n_nationkey", "n_name", "n_regionkey"}
	return build("nation", cols, nil, false), cols
}

// Queries returns the full 22-query throughput mix in query-number order.
// Each entry is a self-contained plan factory that only builds its plan
// and reads nothing: every scan the query will read is in the returned
// tree. Queries that TPC-H states with correlated subqueries or outer
// joins are built from the same base table scans with equivalent
// set/aggregate passes, preserving the tables and columns touched (the
// property the paper's I/O study depends on); such a pass is an
// exec.Apply, drained at Open before the outer plan's scans open.
func Queries() []Plan {
	return []Plan{
		Q1(nil), q2(), q3(), q4(), q5(), Q6(nil), q7(), q8(), q9(), q10(),
		q11(), q12(), q13(), q14(), q15(), q16(), q17(), q18(), q19(), q20(),
		q21(), q22(),
	}
}

func q2() Plan {
	// Min-cost supplier: part (size/type) x partsupp x supplier x nation x region(EUROPE).
	pCols := []string{"p_partkey", "p_size", "p_type", "p_mfgr"}
	psCols := []string{"ps_partkey", "ps_suppkey", "ps_supplycost"}
	sCols := []string{"s_suppkey", "s_nationkey", "s_name", "s_acctbal"}
	return func(db *DB, build ScanBuilder) exec.Op {
		part := &exec.Select{
			Child: build("part", pCols, nil, false),
			Pred: exec.NewAnd(
				exec.NewCmp("==", icol(pCols, "p_size"), exec.ConstI(15)),
				exec.StrContains(col(pCols, "p_type"), "BRASS"),
			),
		}
		ps := build("partsupp", psCols, nil, false)
		j1 := &exec.HashJoin{Build: part, Probe: ps, BuildKey: 0, ProbeKey: col(psCols, "ps_partkey")}
		// j1: ps cols then part cols.
		supp := build("supplier", sCols, nil, false)
		j2 := &exec.HashJoin{Build: supp, Probe: j1, BuildKey: 0, ProbeKey: col(psCols, "ps_suppkey")}
		nation, _ := nationScan(build)
		j3 := &exec.HashJoin{Build: nation, Probe: j2, BuildKey: 0,
			ProbeKey: len(psCols) + len(pCols) + col(sCols, "s_nationkey")}
		// Group by part, min supply cost.
		return &exec.Sort{
			Child: &exec.HashAggr{
				Child:  j3,
				Groups: []int{col(psCols, "ps_partkey")},
				Aggs:   []exec.AggSpec{{Kind: exec.AggMin, Col: col(psCols, "ps_supplycost")}},
			},
			By:    []exec.SortSpec{{Col: 1, Desc: false}},
			Limit: 100,
		}
	}
}

func q3() Plan {
	cCols := []string{"c_custkey", "c_mktsegment"}
	oCols := []string{"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"}
	lCols := []string{"l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"}
	cutoff := Date(1995, 3, 15)
	return func(db *DB, build ScanBuilder) exec.Op {
		cust := &exec.Select{
			Child: build("customer", cCols, nil, false),
			Pred:  exec.StrEq(col(cCols, "c_mktsegment"), "BUILDING"),
		}
		orders := &exec.Select{
			Child: build("orders", oCols, nil, false),
			Pred:  exec.NewCmp("<", icol(oCols, "o_orderdate"), exec.ConstI(cutoff)),
		}
		jco := &exec.HashJoin{Build: cust, Probe: orders, BuildKey: 0, ProbeKey: col(oCols, "o_custkey")}
		line := &exec.Select{
			Child: build("lineitem", lCols, nil, false),
			Pred:  exec.NewCmp(">", icol(lCols, "l_shipdate"), exec.ConstI(cutoff)),
		}
		j := &exec.HashJoin{Build: jco, Probe: line, BuildKey: 0, ProbeKey: col(lCols, "l_orderkey")}
		proj := &exec.Project{
			Child: j,
			Exprs: []exec.Expr{
				icol(lCols, "l_orderkey"),
				revenueExpr(lCols),
			},
		}
		return &exec.Sort{
			Child: &exec.HashAggr{
				Child:  proj,
				Groups: []int{0},
				Aggs:   []exec.AggSpec{{Kind: exec.AggSum, Col: 1}},
			},
			By:    []exec.SortSpec{{Col: 1, Desc: true}},
			Limit: 10,
		}
	}
}

func q4() Plan {
	oCols := []string{"o_orderkey", "o_orderdate", "o_orderpriority"}
	lCols := []string{"l_orderkey", "l_commitdate", "l_receiptdate"}
	lo, hi := Date(1993, 7, 1), Date(1993, 10, 1)-1
	return func(db *DB, build ScanBuilder) exec.Op {
		// EXISTS(lineitem with commit<receipt): the orderkey set.
		set := make(map[int64]bool)
		late := &exec.Select{
			Child: build("lineitem", lCols, nil, false),
			Pred:  exec.NewCmp("<", icol(lCols, "l_commitdate"), icol(lCols, "l_receiptdate")),
		}
		orders := &exec.Select{
			Child: build("orders", oCols, nil, false),
			Pred: exec.NewAnd(
				exec.Between(icol(oCols, "o_orderdate"), lo, hi),
				exec.InI64(col(oCols, "o_orderkey"), set),
			),
		}
		return &exec.Apply{Inner: late, Each: addKeys(set, 0), Outer: &exec.HashAggr{
			Child:  orders,
			Groups: []int{col(oCols, "o_orderpriority")},
			Aggs:   []exec.AggSpec{{Kind: exec.AggCount}},
		}}
	}
}

func q5() Plan {
	cCols := []string{"c_custkey", "c_nationkey"}
	oCols := []string{"o_orderkey", "o_custkey", "o_orderdate"}
	lCols := []string{"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"}
	sCols := []string{"s_suppkey", "s_nationkey"}
	return func(db *DB, build ScanBuilder) exec.Op {
		// ASIA nations.
		nation, nCols := nationScan(build)
		asia := &exec.Select{Child: nation,
			Pred: exec.InI64(col(nCols, "n_regionkey"), map[int64]bool{2: true})}
		asiaSet := make(map[int64]bool)
		cust := &exec.Select{
			Child: build("customer", cCols, nil, false),
			Pred:  exec.InI64(col(cCols, "c_nationkey"), asiaSet),
		}
		orders := &exec.Select{
			Child: build("orders", oCols, nil, false),
			Pred:  exec.Between(icol(oCols, "o_orderdate"), Date(1994, 1, 1), Date(1995, 1, 1)-1),
		}
		jco := &exec.HashJoin{Build: cust, Probe: orders, BuildKey: 0, ProbeKey: col(oCols, "o_custkey")}
		line := build("lineitem", lCols, nil, false)
		jl := &exec.HashJoin{Build: jco, Probe: line, BuildKey: 0, ProbeKey: col(lCols, "l_orderkey")}
		supp := &exec.Select{
			Child: build("supplier", sCols, nil, false),
			Pred:  exec.InI64(col(sCols, "s_nationkey"), asiaSet),
		}
		js := &exec.HashJoin{Build: supp, Probe: jl, BuildKey: 0, ProbeKey: col(lCols, "l_suppkey")}
		// Group revenue by supplier nation.
		nkIdx := len(lCols) + len(oCols) + len(cCols) + col(sCols, "s_nationkey")
		proj := &exec.Project{
			Child: js,
			Exprs: []exec.Expr{
				exec.Col{Idx: nkIdx, T: storage.Int64},
				revenueExpr(lCols),
			},
		}
		return &exec.Apply{Inner: asia, Each: addKeys(asiaSet, 0),
			Outer: &exec.HashAggr{Child: proj, Groups: []int{0},
				Aggs: []exec.AggSpec{{Kind: exec.AggSum, Col: 1}}}}
	}
}

func q7() Plan {
	lCols := []string{"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"}
	sCols := []string{"s_suppkey", "s_nationkey"}
	oCols := []string{"o_orderkey", "o_custkey"}
	cCols := []string{"c_custkey", "c_nationkey"}
	return func(db *DB, build ScanBuilder) exec.Op {
		line := &exec.Select{
			Child: build("lineitem", lCols, nil, false),
			Pred:  exec.Between(icol(lCols, "l_shipdate"), Date(1995, 1, 1), Date(1996, 12, 31)),
		}
		supp := &exec.Select{
			Child: build("supplier", sCols, nil, false),
			Pred:  exec.InI64(col(sCols, "s_nationkey"), map[int64]bool{6: true, 7: true}), // FRANCE, GERMANY
		}
		jls := &exec.HashJoin{Build: supp, Probe: line, BuildKey: 0, ProbeKey: col(lCols, "l_suppkey")}
		cust := &exec.Select{
			Child: build("customer", cCols, nil, false),
			Pred:  exec.InI64(col(cCols, "c_nationkey"), map[int64]bool{6: true, 7: true}),
		}
		orders := build("orders", oCols, nil, false)
		jco := &exec.HashJoin{Build: cust, Probe: orders, BuildKey: 0, ProbeKey: col(oCols, "o_custkey")}
		j := &exec.HashJoin{Build: jco, Probe: jls, BuildKey: 0, ProbeKey: col(lCols, "l_orderkey")}
		suppNation := len(lCols) + col(sCols, "s_nationkey")
		custNation := len(lCols) + len(sCols) + len(oCols) + col(cCols, "c_nationkey")
		proj := &exec.Project{
			Child: j,
			Exprs: []exec.Expr{
				exec.Col{Idx: suppNation, T: storage.Int64},
				exec.Col{Idx: custNation, T: storage.Int64},
				revenueExpr(lCols),
			},
		}
		filt := &exec.Select{Child: proj,
			Pred: exec.NewCmp("!=", exec.Col{Idx: 0, T: storage.Int64}, exec.Col{Idx: 1, T: storage.Int64})}
		return &exec.HashAggr{Child: filt, Groups: []int{0, 1},
			Aggs: []exec.AggSpec{{Kind: exec.AggSum, Col: 2}}}
	}
}

func q8() Plan {
	pCols := []string{"p_partkey", "p_type"}
	lCols := []string{"l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"}
	oCols := []string{"o_orderkey", "o_custkey", "o_orderdate"}
	cCols := []string{"c_custkey", "c_nationkey"}
	sCols := []string{"s_suppkey", "s_nationkey"}
	return func(db *DB, build ScanBuilder) exec.Op {
		part := &exec.Select{
			Child: build("part", pCols, nil, false),
			Pred:  exec.StrEq(col(pCols, "p_type"), "ECONOMY ANODIZED STEEL"),
		}
		line := build("lineitem", lCols, nil, false)
		jlp := &exec.HashJoin{Build: part, Probe: line, BuildKey: 0, ProbeKey: col(lCols, "l_partkey")}
		orders := &exec.Select{
			Child: build("orders", oCols, nil, false),
			Pred:  exec.Between(icol(oCols, "o_orderdate"), Date(1995, 1, 1), Date(1996, 12, 31)),
		}
		jo := &exec.HashJoin{Build: orders, Probe: jlp, BuildKey: 0, ProbeKey: col(lCols, "l_orderkey")}
		// AMERICA customers.
		cust := build("customer", cCols, nil, false)
		jc := &exec.HashJoin{Build: cust, Probe: jo,
			BuildKey: 0, ProbeKey: len(lCols) + len(pCols) + col(oCols, "o_custkey")}
		supp := build("supplier", sCols, nil, false)
		js := &exec.HashJoin{Build: supp, Probe: jc, BuildKey: 0, ProbeKey: col(lCols, "l_suppkey")}
		odateIdx := len(lCols) + len(pCols) + col(oCols, "o_orderdate")
		proj := &exec.Project{
			Child: js,
			Exprs: []exec.Expr{
				exec.NewArith("/", exec.Col{Idx: odateIdx, T: storage.Int64}, exec.ConstI(365)), // year bucket
				revenueExpr(lCols),
			},
		}
		return &exec.HashAggr{Child: proj, Groups: []int{0},
			Aggs: []exec.AggSpec{{Kind: exec.AggSum, Col: 1}, {Kind: exec.AggCount}}}
	}
}

func q9() Plan {
	pCols := []string{"p_partkey", "p_name"}
	lCols := []string{"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_discount"}
	sCols := []string{"s_suppkey", "s_nationkey"}
	psCols := []string{"ps_partkey", "ps_suppkey", "ps_supplycost"}
	oCols := []string{"o_orderkey", "o_orderdate"}
	return func(db *DB, build ScanBuilder) exec.Op {
		part := &exec.Select{
			Child: build("part", pCols, nil, false),
			Pred:  exec.StrContains(col(pCols, "p_name"), "green"),
		}
		line := build("lineitem", lCols, nil, false)
		jp := &exec.HashJoin{Build: part, Probe: line, BuildKey: 0, ProbeKey: col(lCols, "l_partkey")}
		supp := build("supplier", sCols, nil, false)
		js := &exec.HashJoin{Build: supp, Probe: jp, BuildKey: 0, ProbeKey: col(lCols, "l_suppkey")}
		orders := build("orders", oCols, nil, false)
		jo := &exec.HashJoin{Build: orders, Probe: js, BuildKey: 0, ProbeKey: col(lCols, "l_orderkey")}
		// partsupp read to model its I/O share (supplycost per part).
		ps := build("partsupp", psCols, nil, false)
		nkIdx := len(lCols) + len(pCols) + col(sCols, "s_nationkey")
		odateIdx := len(lCols) + len(pCols) + len(sCols) + col(oCols, "o_orderdate")
		proj := &exec.Project{
			Child: jo,
			Exprs: []exec.Expr{
				exec.Col{Idx: nkIdx, T: storage.Int64},
				exec.NewArith("/", exec.Col{Idx: odateIdx, T: storage.Int64}, exec.ConstI(365)),
				revenueExpr(lCols),
			},
		}
		return &exec.Apply{Inner: ps, Each: func(*exec.Batch) {},
			Outer: &exec.HashAggr{Child: proj, Groups: []int{0, 1},
				Aggs: []exec.AggSpec{{Kind: exec.AggSum, Col: 2}}}}
	}
}

func q10() Plan {
	cCols := []string{"c_custkey", "c_nationkey", "c_acctbal"}
	oCols := []string{"o_orderkey", "o_custkey", "o_orderdate"}
	lCols := []string{"l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"}
	return func(db *DB, build ScanBuilder) exec.Op {
		orders := &exec.Select{
			Child: build("orders", oCols, nil, false),
			Pred:  exec.Between(icol(oCols, "o_orderdate"), Date(1993, 10, 1), Date(1994, 1, 1)-1),
		}
		cust := build("customer", cCols, nil, false)
		jco := &exec.HashJoin{Build: cust, Probe: orders, BuildKey: 0, ProbeKey: col(oCols, "o_custkey")}
		line := &exec.Select{
			Child: build("lineitem", lCols, nil, false),
			Pred:  exec.StrEq(col(lCols, "l_returnflag"), "R"),
		}
		j := &exec.HashJoin{Build: jco, Probe: line, BuildKey: 0, ProbeKey: col(lCols, "l_orderkey")}
		custIdx := len(lCols) + len(oCols) + col(cCols, "c_custkey")
		proj := &exec.Project{
			Child: j,
			Exprs: []exec.Expr{
				exec.Col{Idx: custIdx, T: storage.Int64},
				revenueExpr(lCols),
			},
		}
		return &exec.Sort{
			Child: &exec.HashAggr{Child: proj, Groups: []int{0},
				Aggs: []exec.AggSpec{{Kind: exec.AggSum, Col: 1}}},
			By:    []exec.SortSpec{{Col: 1, Desc: true}},
			Limit: 20,
		}
	}
}

func q11() Plan {
	psCols := []string{"ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"}
	sCols := []string{"s_suppkey", "s_nationkey"}
	return func(db *DB, build ScanBuilder) exec.Op {
		supp := &exec.Select{
			Child: build("supplier", sCols, nil, false),
			Pred:  exec.InI64(col(sCols, "s_nationkey"), map[int64]bool{7: true}), // GERMANY
		}
		ps := build("partsupp", psCols, nil, false)
		j := &exec.HashJoin{Build: supp, Probe: ps, BuildKey: 0, ProbeKey: col(psCols, "ps_suppkey")}
		proj := &exec.Project{
			Child: j,
			Exprs: []exec.Expr{
				icol(psCols, "ps_partkey"),
				exec.NewArith("*", fcol(psCols, "ps_supplycost"), &castF{icol(psCols, "ps_availqty")}),
			},
		}
		return &exec.Sort{
			Child: &exec.HashAggr{Child: proj, Groups: []int{0},
				Aggs: []exec.AggSpec{{Kind: exec.AggSum, Col: 1}}},
			By:    []exec.SortSpec{{Col: 1, Desc: true}},
			Limit: 100,
		}
	}
}

// castF converts an int64 expression to float64.
type castF struct{ E exec.Expr }

// Type implements exec.Expr.
func (*castF) Type() storage.ColumnType { return storage.Float64 }

// Eval implements exec.Expr.
func (c *castF) Eval(b *exec.Batch, out *exec.Vec) {
	var tmp exec.Vec
	c.E.Eval(b, &tmp)
	out.Reset()
	out.T = storage.Float64
	for _, v := range tmp.I64 {
		out.F64 = append(out.F64, float64(v))
	}
}

func q12() Plan {
	lCols := []string{"l_orderkey", "l_shipmode", "l_commitdate", "l_receiptdate", "l_shipdate"}
	oCols := []string{"o_orderkey", "o_orderpriority"}
	return func(db *DB, build ScanBuilder) exec.Op {
		line := &exec.Select{
			Child: build("lineitem", lCols, nil, false),
			Pred: exec.NewAnd(
				exec.InStr(col(lCols, "l_shipmode"), map[string]bool{"MAIL": true, "SHIP": true}),
				exec.NewCmp("<", icol(lCols, "l_commitdate"), icol(lCols, "l_receiptdate")),
				exec.NewCmp("<", icol(lCols, "l_shipdate"), icol(lCols, "l_commitdate")),
				exec.Between(icol(lCols, "l_receiptdate"), Date(1994, 1, 1), Date(1995, 1, 1)-1),
			),
		}
		orders := build("orders", oCols, nil, false)
		j := &exec.HashJoin{Build: orders, Probe: line, BuildKey: 0, ProbeKey: col(lCols, "l_orderkey")}
		return &exec.HashAggr{
			Child:  j,
			Groups: []int{col(lCols, "l_shipmode")},
			Aggs:   []exec.AggSpec{{Kind: exec.AggCount}},
		}
	}
}

func q13() Plan {
	oCols := []string{"o_orderkey", "o_custkey", "o_comment"}
	cCols := []string{"c_custkey"}
	return func(db *DB, build ScanBuilder) exec.Op {
		// Orders-per-customer distribution; the left-join's null bucket is
		// approximated by counting matched customers only.
		cust := build("customer", cCols, nil, false)
		orders := &exec.Select{
			Child: build("orders", oCols, nil, false),
			Pred:  exec.NewCmp("==", exec.StrContains(col(oCols, "o_comment"), "special requests"), exec.ConstI(0)),
		}
		perCust := &exec.HashAggr{
			Child:  orders,
			Groups: []int{col(oCols, "o_custkey")},
			Aggs:   []exec.AggSpec{{Kind: exec.AggCount}},
		}
		return &exec.Apply{Inner: cust, Each: func(*exec.Batch) {}, Outer: &exec.Sort{
			Child: &exec.HashAggr{Child: perCust, Groups: []int{1},
				Aggs: []exec.AggSpec{{Kind: exec.AggCount}}},
			By: []exec.SortSpec{{Col: 1, Desc: true}},
		}}
	}
}

func q14() Plan {
	lCols := []string{"l_partkey", "l_extendedprice", "l_discount", "l_shipdate"}
	pCols := []string{"p_partkey", "p_type"}
	return func(db *DB, build ScanBuilder) exec.Op {
		line := &exec.Select{
			Child: build("lineitem", lCols, nil, false),
			Pred:  exec.Between(icol(lCols, "l_shipdate"), Date(1995, 9, 1), Date(1995, 10, 1)-1),
		}
		part := build("part", pCols, nil, false)
		j := &exec.HashJoin{Build: part, Probe: line, BuildKey: 0, ProbeKey: col(lCols, "l_partkey")}
		promo := &exec.Project{
			Child: j,
			Exprs: []exec.Expr{
				exec.StrPrefix(len(lCols)+col(pCols, "p_type"), "PROMO"),
				revenueExpr(lCols),
			},
		}
		return &exec.HashAggr{Child: promo, Groups: []int{0},
			Aggs: []exec.AggSpec{{Kind: exec.AggSum, Col: 1}}}
	}
}

func q15() Plan {
	lCols := []string{"l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"}
	sCols := []string{"s_suppkey", "s_name"}
	return func(db *DB, build ScanBuilder) exec.Op {
		line := &exec.Select{
			Child: build("lineitem", lCols, nil, false),
			Pred:  exec.Between(icol(lCols, "l_shipdate"), Date(1996, 1, 1), Date(1996, 4, 1)-1),
		}
		proj := &exec.Project{Child: line,
			Exprs: []exec.Expr{icol(lCols, "l_suppkey"), revenueExpr(lCols)}}
		rev := &exec.HashAggr{Child: proj, Groups: []int{0},
			Aggs: []exec.AggSpec{{Kind: exec.AggSum, Col: 1}}}
		supp := build("supplier", sCols, nil, false)
		j := &exec.HashJoin{Build: rev, Probe: supp, BuildKey: 0, ProbeKey: 0}
		return &exec.Sort{Child: j, By: []exec.SortSpec{{Col: len(sCols) + 1, Desc: true}}, Limit: 1}
	}
}

func q16() Plan {
	psCols := []string{"ps_partkey", "ps_suppkey"}
	pCols := []string{"p_partkey", "p_brand", "p_type", "p_size"}
	return func(db *DB, build ScanBuilder) exec.Op {
		part := &exec.Select{
			Child: build("part", pCols, nil, false),
			Pred: exec.NewAnd(
				exec.NewCmp("==", exec.StrEq(col(pCols, "p_brand"), "Brand#45"), exec.ConstI(0)),
				exec.NewCmp("==", exec.StrPrefix(col(pCols, "p_type"), "MEDIUM POLISHED"), exec.ConstI(0)),
				exec.InI64(col(pCols, "p_size"), map[int64]bool{49: true, 14: true, 23: true, 45: true, 19: true, 3: true, 36: true, 9: true}),
			),
		}
		ps := build("partsupp", psCols, nil, false)
		j := &exec.HashJoin{Build: part, Probe: ps, BuildKey: 0, ProbeKey: col(psCols, "ps_partkey")}
		return &exec.Sort{
			Child: &exec.HashAggr{
				Child:  j,
				Groups: []int{len(psCols) + col(pCols, "p_brand"), len(psCols) + col(pCols, "p_type"), len(psCols) + col(pCols, "p_size")},
				Aggs:   []exec.AggSpec{{Kind: exec.AggCount}},
			},
			By:    []exec.SortSpec{{Col: 3, Desc: true}},
			Limit: 100,
		}
	}
}

func q17() Plan {
	lCols := []string{"l_partkey", "l_quantity", "l_extendedprice"}
	pCols := []string{"p_partkey", "p_brand", "p_container"}
	return func(db *DB, build ScanBuilder) exec.Op {
		// Pass 1: average quantity per part (the correlated subquery).
		avg := &exec.HashAggr{
			Child:  build("lineitem", []string{"l_partkey", "l_quantity"}, nil, false),
			Groups: []int{0},
			Aggs:   []exec.AggSpec{{Kind: exec.AggAvg, Col: 1}},
		}
		avgByPart := make(map[int64]float64)
		part := &exec.Select{
			Child: build("part", pCols, nil, false),
			Pred: exec.NewAnd(
				exec.StrEq(col(pCols, "p_brand"), "Brand#23"),
				exec.StrEq(col(pCols, "p_container"), "MED BOX"),
			),
		}
		line := build("lineitem", lCols, nil, false)
		pk, qty := col(lCols, "l_partkey"), col(lCols, "l_quantity")
		j := &exec.HashJoin{Build: part, Probe: line, BuildKey: 0, ProbeKey: pk}
		below := &exec.Select{Child: j, Pred: exec.Where(func(b *exec.Batch, i int) bool {
			return b.Vecs[qty].F64[i] < 0.2*avgByPart[b.Vecs[pk].I64[i]]
		})}
		return &exec.Apply{Inner: avg, Each: func(b *exec.Batch) {
			for i, k := range b.Vecs[0].I64[:b.N] {
				avgByPart[k] = b.Vecs[1].F64[i]
			}
		}, Outer: &exec.HashAggr{Child: below,
			Aggs: []exec.AggSpec{{Kind: exec.AggSum, Col: col(lCols, "l_extendedprice")}, {Kind: exec.AggCount}}}}
	}
}

func q18() Plan {
	lCols := []string{"l_orderkey", "l_quantity"}
	oCols := []string{"o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"}
	return func(db *DB, build ScanBuilder) exec.Op {
		// Orders with sum(quantity) > 300.
		qty := &exec.HashAggr{
			Child:  build("lineitem", lCols, nil, false),
			Groups: []int{0},
			Aggs:   []exec.AggSpec{{Kind: exec.AggSum, Col: 1}},
		}
		big := make(map[int64]bool)
		orders := &exec.Select{
			Child: build("orders", oCols, nil, false),
			Pred:  exec.InI64(col(oCols, "o_orderkey"), big),
		}
		return &exec.Apply{Inner: qty, Each: func(b *exec.Batch) {
			for i, sum := range b.Vecs[1].F64[:b.N] {
				if sum > 300 {
					big[b.Vecs[0].I64[i]] = true
				}
			}
		}, Outer: &exec.Sort{Child: orders,
			By:    []exec.SortSpec{{Col: col(oCols, "o_totalprice"), Desc: true}},
			Limit: 100}}
	}
}

func q19() Plan {
	lCols := []string{"l_partkey", "l_quantity", "l_extendedprice", "l_discount", "l_shipmode", "l_shipinstruct"}
	pCols := []string{"p_partkey", "p_brand", "p_container", "p_size"}
	return func(db *DB, build ScanBuilder) exec.Op {
		line := &exec.Select{
			Child: build("lineitem", lCols, nil, false),
			Pred: exec.NewAnd(
				exec.InStr(col(lCols, "l_shipmode"), map[string]bool{"AIR": true, "REG AIR": true}),
				exec.StrEq(col(lCols, "l_shipinstruct"), "DELIVER IN PERSON"),
			),
		}
		part := build("part", pCols, nil, false)
		j := &exec.HashJoin{Build: part, Probe: line, BuildKey: 0, ProbeKey: col(lCols, "l_partkey")}
		brand := len(lCols) + col(pCols, "p_brand")
		qty := col(lCols, "l_quantity")
		filt := &exec.Select{
			Child: j,
			Pred: exec.NewOr(
				exec.NewAnd(exec.StrEq(brand, "Brand#12"),
					exec.NewCmp(">=", fcol(lCols, "l_quantity"), exec.ConstF(1)),
					exec.NewCmp("<=", exec.Col{Idx: qty, T: storage.Float64}, exec.ConstF(11))),
				exec.NewAnd(exec.StrEq(brand, "Brand#23"),
					exec.NewCmp(">=", fcol(lCols, "l_quantity"), exec.ConstF(10)),
					exec.NewCmp("<=", exec.Col{Idx: qty, T: storage.Float64}, exec.ConstF(20))),
				exec.NewAnd(exec.StrEq(brand, "Brand#34"),
					exec.NewCmp(">=", fcol(lCols, "l_quantity"), exec.ConstF(20)),
					exec.NewCmp("<=", exec.Col{Idx: qty, T: storage.Float64}, exec.ConstF(30))),
			),
		}
		proj := &exec.Project{Child: filt, Exprs: []exec.Expr{revenueExpr(lCols)}}
		return &exec.HashAggr{Child: proj, Aggs: []exec.AggSpec{{Kind: exec.AggSum, Col: 0}}}
	}
}

func q20() Plan {
	psCols := []string{"ps_partkey", "ps_suppkey", "ps_availqty"}
	sCols := []string{"s_suppkey", "s_name", "s_nationkey"}
	return func(db *DB, build ScanBuilder) exec.Op {
		// Half of shipped quantity per (part,supp) in 1994.
		shipped := &exec.HashAggr{
			Child: &exec.Select{
				Child: build("lineitem", []string{"l_partkey", "l_suppkey", "l_quantity", "l_shipdate"}, nil, false),
				Pred:  exec.Between(exec.Col{Idx: 3, T: storage.Int64}, Date(1994, 1, 1), Date(1995, 1, 1)-1),
			},
			Groups: []int{0, 1},
			Aggs:   []exec.AggSpec{{Kind: exec.AggSum, Col: 2}},
		}
		half := make(map[[2]int64]float64)
		// Forest parts.
		parts := &exec.Select{
			Child: build("part", []string{"p_partkey", "p_name"}, nil, false),
			Pred:  exec.StrPrefix(1, "forest"),
		}
		forest := make(map[int64]bool)
		ps := &exec.Select{
			Child: build("partsupp", psCols, nil, false),
			Pred: exec.NewAnd(
				exec.InI64(col(psCols, "ps_partkey"), forest),
				// availqty above half the pair's shipped quantity
				exec.Where(func(b *exec.Batch, i int) bool {
					return float64(b.Vecs[2].I64[i]) > half[[2]int64{b.Vecs[0].I64[i], b.Vecs[1].I64[i]}]
				}),
			),
		}
		supp := &exec.Select{
			Child: build("supplier", sCols, nil, false),
			Pred:  exec.InI64(col(sCols, "s_nationkey"), map[int64]bool{3: true}), // CANADA
		}
		j := &exec.HashJoin{Build: supp, Probe: ps, BuildKey: 0, ProbeKey: col(psCols, "ps_suppkey")}
		return &exec.Apply{Inner: shipped, Each: func(b *exec.Batch) {
			for i, sum := range b.Vecs[2].F64[:b.N] {
				half[[2]int64{b.Vecs[0].I64[i], b.Vecs[1].I64[i]}] = sum / 2
			}
		}, Outer: &exec.Apply{Inner: parts, Each: addKeys(forest, 0), Outer: &exec.HashAggr{Child: j,
			Groups: []int{len(psCols) + col(sCols, "s_name")},
			Aggs:   []exec.AggSpec{{Kind: exec.AggCount}}}}}
	}
}

func q21() Plan {
	lCols := []string{"l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate"}
	oCols := []string{"o_orderkey", "o_orderstatus"}
	sCols := []string{"s_suppkey", "s_name", "s_nationkey"}
	return func(db *DB, build ScanBuilder) exec.Op {
		line := &exec.Select{
			Child: build("lineitem", lCols, nil, false),
			Pred:  exec.NewCmp(">", icol(lCols, "l_receiptdate"), icol(lCols, "l_commitdate")),
		}
		orders := &exec.Select{
			Child: build("orders", oCols, nil, false),
			Pred:  exec.StrEq(col(oCols, "o_orderstatus"), "F"),
		}
		j := &exec.HashJoin{Build: orders, Probe: line, BuildKey: 0, ProbeKey: col(lCols, "l_orderkey")}
		supp := &exec.Select{
			Child: build("supplier", sCols, nil, false),
			Pred:  exec.InI64(col(sCols, "s_nationkey"), map[int64]bool{20: true}), // SAUDI ARABIA
		}
		js := &exec.HashJoin{Build: supp, Probe: j, BuildKey: 0, ProbeKey: col(lCols, "l_suppkey")}
		return &exec.Sort{
			Child: &exec.HashAggr{Child: js,
				Groups: []int{len(lCols) + len(oCols) + col(sCols, "s_name")},
				Aggs:   []exec.AggSpec{{Kind: exec.AggCount}}},
			By:    []exec.SortSpec{{Col: 1, Desc: true}},
			Limit: 100,
		}
	}
}

func q22() Plan {
	cCols := []string{"c_custkey", "c_phone", "c_acctbal"}
	oCols := []string{"o_orderkey", "o_custkey"}
	codes := map[string]bool{"13": true, "31": true, "23": true, "29": true, "30": true, "18": true, "17": true}
	phone := col(cCols, "c_phone")
	return func(db *DB, build ScanBuilder) exec.Op {
		// Customers with orders (anti-join set).
		ordered := build("orders", oCols, nil, false)
		hasOrder := make(map[int64]bool)
		cust := &exec.Select{
			Child: build("customer", cCols, nil, false),
			Pred: exec.NewAnd(
				exec.Where(func(b *exec.Batch, i int) bool {
					v := b.Vecs[phone].Str[i]
					return len(v) >= 2 && codes[v[:2]]
				}),
				exec.NewCmp(">", fcol(cCols, "c_acctbal"), exec.ConstF(0)),
				exec.NewCmp("==", exec.InI64(col(cCols, "c_custkey"), hasOrder), exec.ConstI(0)),
			),
		}
		proj := &exec.Project{Child: cust, Exprs: []exec.Expr{
			&phoneCodeExpr{phone},
			fcol(cCols, "c_acctbal"),
		}}
		return &exec.Apply{Inner: ordered, Each: addKeys(hasOrder, col(oCols, "o_custkey")),
			Outer: &exec.HashAggr{Child: proj, Groups: []int{0},
				Aggs: []exec.AggSpec{{Kind: exec.AggCount}, {Kind: exec.AggSum, Col: 1}}}}
	}
}

type phoneCodeExpr struct{ col int }

// Type implements exec.Expr.
func (*phoneCodeExpr) Type() storage.ColumnType { return storage.String }

// Eval implements exec.Expr.
func (e *phoneCodeExpr) Eval(b *exec.Batch, out *exec.Vec) {
	out.Reset()
	out.T = storage.String
	for _, v := range b.Vecs[e.col].Str {
		if len(v) >= 2 {
			out.Str = append(out.Str, v[:2])
		} else {
			out.Str = append(out.Str, v)
		}
	}
}
