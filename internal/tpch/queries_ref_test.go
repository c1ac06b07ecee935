package tpch

import "testing"

// These tests validate individual throughput queries against direct
// recomputation from storage, complementing the end-to-end smoke test.

func TestQ12MatchesReference(t *testing.T) {
	db := testDB(t)
	got := collect(t, db, Queries()[11])

	snap := db.Snapshot("lineitem")
	n := snap.NumTuples()
	mode := snap.ReadString(db.Col("lineitem", "l_shipmode"), 0, n, nil)
	commit := snap.ReadInt64(db.Col("lineitem", "l_commitdate"), 0, n, nil)
	receipt := snap.ReadInt64(db.Col("lineitem", "l_receiptdate"), 0, n, nil)
	ship := snap.ReadInt64(db.Col("lineitem", "l_shipdate"), 0, n, nil)
	want := map[string]int64{}
	lo, hi := Date(1994, 1, 1), Date(1995, 1, 1)-1
	for i := int64(0); i < n; i++ {
		m := mode[i]
		if (m == "MAIL" || m == "SHIP") &&
			commit[i] < receipt[i] && ship[i] < commit[i] &&
			receipt[i] >= lo && receipt[i] <= hi {
			want[m]++
		}
	}
	gotMap := map[string]int64{}
	for i := 0; i < got.N; i++ {
		gotMap[got.Vecs[0].Str[i]] = got.Vecs[1].I64[i]
	}
	for m, w := range want {
		if gotMap[m] != w {
			t.Errorf("Q12 %s = %d, want %d", m, gotMap[m], w)
		}
	}
	for m := range gotMap {
		if _, ok := want[m]; !ok && gotMap[m] > 0 {
			t.Errorf("Q12 unexpected group %s", m)
		}
	}
}

func TestQ14MatchesReference(t *testing.T) {
	db := testDB(t)
	got := collect(t, db, Queries()[13])

	li := db.Snapshot("lineitem")
	n := li.NumTuples()
	pk := li.ReadInt64(db.Col("lineitem", "l_partkey"), 0, n, nil)
	price := li.ReadFloat64(db.Col("lineitem", "l_extendedprice"), 0, n, nil)
	disc := li.ReadFloat64(db.Col("lineitem", "l_discount"), 0, n, nil)
	ship := li.ReadInt64(db.Col("lineitem", "l_shipdate"), 0, n, nil)
	part := db.Snapshot("part")
	ptype := part.ReadString(db.Col("part", "p_type"), 0, part.NumTuples(), nil)
	lo, hi := Date(1995, 9, 1), Date(1995, 10, 1)-1
	want := map[bool]float64{}
	for i := int64(0); i < n; i++ {
		if ship[i] < lo || ship[i] > hi {
			continue
		}
		promo := len(ptype[pk[i]-1]) >= 5 && ptype[pk[i]-1][:5] == "PROMO"
		want[promo] += price[i] * (1 - disc[i])
	}
	gotMap := map[int64]float64{}
	for i := 0; i < got.N; i++ {
		gotMap[got.Vecs[0].I64[i]] = got.Vecs[1].F64[i]
	}
	for _, promo := range []bool{false, true} {
		key := int64(0)
		if promo {
			key = 1
		}
		diff := gotMap[key] - want[promo]
		if diff < -1e-6 || diff > 1e-6 {
			t.Errorf("Q14 promo=%v revenue = %v, want %v", promo, gotMap[key], want[promo])
		}
	}
}

func TestQ18MatchesReference(t *testing.T) {
	db := testDB(t)
	got := collect(t, db, Queries()[17])

	li := db.Snapshot("lineitem")
	n := li.NumTuples()
	ok := li.ReadInt64(db.Col("lineitem", "l_orderkey"), 0, n, nil)
	qty := li.ReadFloat64(db.Col("lineitem", "l_quantity"), 0, n, nil)
	sum := map[int64]float64{}
	for i := int64(0); i < n; i++ {
		sum[ok[i]] += qty[i]
	}
	wantBig := map[int64]bool{}
	for k, s := range sum {
		if s > 300 {
			wantBig[k] = true
		}
	}
	if got.N > 100 {
		t.Fatalf("Q18 limit violated: %d rows", got.N)
	}
	okIdx := 0 // o_orderkey is the first scan column
	for i := 0; i < got.N; i++ {
		if !wantBig[got.Vecs[okIdx].I64[i]] {
			t.Errorf("Q18 returned order %d without qty > 300", got.Vecs[okIdx].I64[i])
		}
	}
	if len(wantBig) <= 100 && got.N != len(wantBig) {
		t.Errorf("Q18 rows = %d, want %d", got.N, len(wantBig))
	}
}

func TestQ22MatchesReference(t *testing.T) {
	db := testDB(t)
	got := collect(t, db, Queries()[21])

	cust := db.Snapshot("customer")
	n := cust.NumTuples()
	phone := cust.ReadString(db.Col("customer", "c_phone"), 0, n, nil)
	bal := cust.ReadFloat64(db.Col("customer", "c_acctbal"), 0, n, nil)
	key := cust.ReadInt64(db.Col("customer", "c_custkey"), 0, n, nil)
	ord := db.Snapshot("orders")
	ocust := ord.ReadInt64(db.Col("orders", "o_custkey"), 0, ord.NumTuples(), nil)
	has := map[int64]bool{}
	for _, c := range ocust {
		has[c] = true
	}
	codes := map[string]bool{"13": true, "31": true, "23": true, "29": true, "30": true, "18": true, "17": true}
	wantCnt := map[string]int64{}
	for i := int64(0); i < n; i++ {
		cc := phone[i][:2]
		if codes[cc] && bal[i] > 0 && !has[key[i]] {
			wantCnt[cc]++
		}
	}
	gotCnt := map[string]int64{}
	for i := 0; i < got.N; i++ {
		gotCnt[got.Vecs[0].Str[i]] = got.Vecs[1].I64[i]
	}
	for cc, w := range wantCnt {
		if gotCnt[cc] != w {
			t.Errorf("Q22 %s = %d, want %d", cc, gotCnt[cc], w)
		}
	}
}
