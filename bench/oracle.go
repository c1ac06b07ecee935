package main

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/storage"
	"repro/internal/tpch"
)

// oracle answers q1, q6 and scan over any row range of the generated
// lineitem table, computed straight from the snapshot's stored values and
// independent of internal/exec. It keeps prefix sums, so checking a
// response costs the client O(1) and steals no time from the server it
// shares two cores with. Float prefix differences are exact to ~1e-12
// relative here, far inside the 1e-6 tolerance.
type oracle struct {
	n       int64
	revenue []float64 // revenue[i]: q6's sum over rows [0, i)
	rowHash []uint64  // rowHash[i]: wrapping sum of scan-row hashes over [0, i)
	groups  []*q1Group
}

// q1Group is one (l_returnflag, l_linestatus) group's prefix sums.
type q1Group struct {
	flag, status string
	count        []int32
	qty          []float64
}

// scanColumns is the column set a "scan" request streams, in order: the
// wire contract of wire.KindScan.
var scanColumns = []string{
	"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
	"l_discount", "l_tax", "l_shipdate",
}

const relTol = 1e-6

func newOracle(db *tpch.DB) *oracle {
	snap := db.Snapshot("lineitem")
	n := snap.NumTuples()
	o := &oracle{n: n, revenue: make([]float64, n+1), rowHash: make([]uint64, n+1)}
	col := func(name string) int { return db.Col("lineitem", name) }
	schema := snap.Table().Schema
	const step = 8192
	flag, status := make([]string, step), make([]string, step)
	qty, price, disc, tax := make([]float64, step), make([]float64, step), make([]float64, step), make([]float64, step)
	ship := make([]int64, step)
	q6lo, q6hi := tpch.Date(1994, 1, 1), tpch.Date(1995, 1, 1)-1
	byKey := map[string]*q1Group{}
	var line []byte
	for lo := int64(0); lo < n; lo += step {
		hi := min(lo+step, n)
		flag = snap.ReadString(col("l_returnflag"), lo, hi, flag[:0])
		status = snap.ReadString(col("l_linestatus"), lo, hi, status[:0])
		qty = snap.ReadFloat64(col("l_quantity"), lo, hi, qty[:0])
		price = snap.ReadFloat64(col("l_extendedprice"), lo, hi, price[:0])
		disc = snap.ReadFloat64(col("l_discount"), lo, hi, disc[:0])
		tax = snap.ReadFloat64(col("l_tax"), lo, hi, tax[:0])
		ship = snap.ReadInt64(col("l_shipdate"), lo, hi, ship[:0])
		for i := range ship {
			r := lo + int64(i)
			// Q6: revenue of rows passing the date, discount and quantity filters.
			rev := 0.0
			if ship[i] >= q6lo && ship[i] <= q6hi && disc[i] >= 0.05 && disc[i] <= 0.07 && qty[i] < 24 {
				rev = price[i] * disc[i]
			}
			o.revenue[r+1] = o.revenue[r] + rev

			// Q1: count and sum(l_quantity) per group under the shipdate cutoff.
			if ship[i] <= tpch.DateMax-90 {
				key := flag[i] + "|" + status[i]
				g := byKey[key]
				if g == nil {
					g = &q1Group{flag: flag[i], status: status[i], count: make([]int32, n+1), qty: make([]float64, n+1)}
					byKey[key] = g
					o.groups = append(o.groups, g)
				}
				g.count[r+1], g.qty[r+1] = 1, qty[i]
			}

			// scan: the row as the server's NDJSON encoder renders it.
			line = append(line[:0], '[')
			line = strconv.AppendQuote(line, flag[i])
			line = append(line, ',')
			line = strconv.AppendQuote(line, status[i])
			for _, v := range []float64{qty[i], price[i], disc[i], tax[i]} {
				line = append(line, ',')
				line = strconv.AppendFloat(line, v, 'g', -1, 64)
			}
			line = append(line, ',')
			line = strconv.AppendInt(line, ship[i], 10)
			line = append(line, ']')
			o.rowHash[r+1] = o.rowHash[r] + hashRow(line)
		}
	}
	for _, g := range o.groups {
		for i := int64(1); i <= n; i++ {
			g.count[i] += g.count[i-1]
			g.qty[i] += g.qty[i-1]
		}
	}
	// The encoder above hard-codes the scan columns' types; a schema
	// change must fail loudly here rather than as 100% wrong answers.
	for i, want := range []storage.ColumnType{storage.String, storage.String, storage.Float64, storage.Float64, storage.Float64, storage.Float64, storage.Int64} {
		if got := schema[col(scanColumns[i])].Type; got != want {
			panic(fmt.Sprintf("bench oracle: %s is %v, want %v", scanColumns[i], got, want))
		}
	}
	return o
}

// hashRow is FNV-1a over one NDJSON row, without its newline. Row hashes
// are summed, which makes the scan checksum independent of row order.
func hashRow(line []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range line {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func closeEnough(got, want float64) bool {
	if want == 0 {
		return math.Abs(got) < 1e-9
	}
	return math.Abs(got-want) <= relTol*math.Abs(want)
}

// checkQ6 compares a q6 response (its rows as decoded JSON arrays).
func (o *oracle) checkQ6(lo, hi int64, rows [][]any) error {
	want := o.revenue[hi] - o.revenue[lo]
	got := 0.0
	if len(rows) > 1 || (len(rows) == 1 && len(rows[0]) != 1) {
		return fmt.Errorf("q6 [%d,%d): want one row of one value, got %v", lo, hi, rows)
	}
	if len(rows) == 1 {
		v, ok := rows[0][0].(float64)
		if !ok {
			return fmt.Errorf("q6 [%d,%d): revenue is %T", lo, hi, rows[0][0])
		}
		got = v
	}
	if !closeEnough(got, want) {
		return fmt.Errorf("q6 [%d,%d): revenue %v, oracle says %v", lo, hi, got, want)
	}
	return nil
}

// checkQ1 compares a q1 response: per group, sum(l_quantity) is the third
// column and the count the last, in both the single-threaded and the
// re-aggregated parallel plan shape.
func (o *oracle) checkQ1(lo, hi int64, rows [][]any) error {
	seen := 0
	for _, row := range rows {
		if len(row) < 4 {
			return fmt.Errorf("q1 [%d,%d): short row %v", lo, hi, row)
		}
		flag, _ := row[0].(string)
		status, _ := row[1].(string)
		qty, ok1 := row[2].(float64)
		count, ok2 := row[len(row)-1].(float64)
		if !ok1 || !ok2 {
			return fmt.Errorf("q1 [%d,%d): malformed row %v", lo, hi, row)
		}
		var g *q1Group
		for _, c := range o.groups {
			if c.flag == flag && c.status == status {
				g = c
			}
		}
		if g == nil {
			return fmt.Errorf("q1 [%d,%d): unknown group (%q,%q)", lo, hi, flag, status)
		}
		wantCount := float64(g.count[hi] - g.count[lo])
		wantQty := g.qty[hi] - g.qty[lo]
		if count != wantCount || !closeEnough(qty, wantQty) {
			return fmt.Errorf("q1 [%d,%d) group (%s,%s): count %v sum_qty %v, oracle says %v and %v", lo, hi, flag, status, count, qty, wantCount, wantQty)
		}
		seen++
	}
	want := 0
	for _, g := range o.groups {
		if g.count[hi] > g.count[lo] {
			want++
		}
	}
	if seen != want {
		return fmt.Errorf("q1 [%d,%d): %d groups, oracle says %d", lo, hi, seen, want)
	}
	return nil
}

// checkScan compares a scan response's row count and checksum.
func (o *oracle) checkScan(lo, hi, rows int64, sum uint64) error {
	if rows != hi-lo {
		return fmt.Errorf("scan [%d,%d): %d rows, want %d", lo, hi, rows, hi-lo)
	}
	if want := o.rowHash[hi] - o.rowHash[lo]; sum != want {
		return fmt.Errorf("scan [%d,%d): checksum %x, oracle says %x", lo, hi, sum, want)
	}
	return nil
}
