package tpch

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/exec"
	"repro/internal/iosim"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
)

func testDB(t testing.TB) *DB {
	t.Helper()
	return Generate(0.005, 1)
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(0.005, 7)
	b := Generate(0.005, 7)
	sa, sb := a.Snapshot("lineitem"), b.Snapshot("lineitem")
	if sa.NumTuples() != sb.NumTuples() {
		t.Fatalf("tuple counts differ: %d vs %d", sa.NumTuples(), sb.NumTuples())
	}
	va := sa.ReadFloat64(a.Col("lineitem", "l_extendedprice"), 0, 100, nil)
	vb := sb.ReadFloat64(b.Col("lineitem", "l_extendedprice"), 0, 100, nil)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("value %d differs", i)
		}
	}
}

func TestSchemaShape(t *testing.T) {
	db := testDB(t)
	wantTables := []string{"region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem"}
	totalCols := 0
	for _, name := range wantTables {
		snap := db.Snapshot(name)
		totalCols += len(snap.Table().Schema)
		if snap.NumTuples() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	if totalCols != 61 {
		t.Fatalf("total columns = %d, want 61 (TPC-H)", totalCols)
	}
	if db.Snapshot("nation").NumTuples() != 25 || db.Snapshot("region").NumTuples() != 5 {
		t.Fatal("fixed-size tables wrong")
	}
}

func TestRowMultipliers(t *testing.T) {
	db := Generate(0.01, 3)
	ps := db.Snapshot("partsupp").NumTuples()
	p := db.Snapshot("part").NumTuples()
	if ps != 4*p {
		t.Fatalf("partsupp = %d, want 4x part (%d)", ps, p)
	}
	l := db.Snapshot("lineitem").NumTuples()
	o := db.Snapshot("orders").NumTuples()
	ratio := float64(l) / float64(o)
	if ratio < 3 || ratio > 5 {
		t.Fatalf("lineitem/orders = %v, want ~4", ratio)
	}
}

func TestDateEncoding(t *testing.T) {
	if Date(1992, 1, 1) != 0 {
		t.Fatalf("epoch = %d", Date(1992, 1, 1))
	}
	if Date(1992, 1, 2) != 1 || Date(1992, 2, 1) != 31 {
		t.Fatal("day arithmetic wrong")
	}
	if Date(1993, 1, 1) != 366 { // 1992 is a leap year
		t.Fatalf("1993-01-01 = %d, want 366", Date(1993, 1, 1))
	}
	if Date(1998, 12, 31) > DateMax {
		t.Fatalf("DateMax too small: %d", Date(1998, 12, 31))
	}
}

func TestDatesWithinRange(t *testing.T) {
	db := testDB(t)
	snap := db.Snapshot("lineitem")
	ship := snap.ReadInt64(db.Col("lineitem", "l_shipdate"), 0, snap.NumTuples(), nil)
	for i, d := range ship {
		if d < 0 || d > DateMax+160 {
			t.Fatalf("shipdate[%d] = %d out of range", i, d)
		}
	}
}

// planEnv wires a minimal environment to execute plans against a DB. Its
// builder watches every scan it makes: scans, in build order.
type planEnv struct {
	eng   *sim.Engine
	ctx   *exec.Ctx
	scans []*watched
}

func newPlanEnv(t testing.TB) *planEnv {
	t.Helper()
	eng := sim.NewEngine()
	disk := iosim.New(rt.Sim(eng), iosim.Config{Bandwidth: 2e9, SeekLatency: 10 * time.Microsecond})
	pool := buffer.NewPool(rt.Sim(eng), disk, buffer.NewLRU(), 1<<31)
	return &planEnv{eng: eng, ctx: &exec.Ctx{RT: rt.Sim(eng), Pool: pool, ReadAheadTuples: 16384}}
}

func (pe *planEnv) scanBuilder(db *DB) ScanBuilder {
	return func(table string, cols []string, ranges []exec.RIDRange, inOrder bool) exec.Op {
		snap := db.Snapshot(table)
		idx := make([]int, len(cols))
		for i, c := range cols {
			idx[i] = db.Col(table, c)
		}
		if ranges == nil {
			ranges = []exec.RIDRange{{Lo: 0, Hi: snap.NumTuples()}}
		}
		w := &watched{Op: &exec.Scan{Ctx: pe.ctx, Snap: snap, Cols: idx, Ranges: ranges}}
		pe.scans = append(pe.scans, w)
		return w
	}
}

// checkResolved fails unless every scan was opened and closed exactly
// once and the pool holds no pin, load or parked reservation.
func (pe *planEnv) checkResolved(t testing.TB) {
	t.Helper()
	for i, w := range pe.scans {
		if w.opens != 1 || w.closes != 1 {
			t.Errorf("scan %d opened %d and closed %d times, want once each", i, w.opens, w.closes)
		}
	}
	if err := pe.ctx.Pool.Check(true); err != nil {
		t.Error(err)
	}
}

// collect builds plan over db, runs it to completion in one simulated
// process on a fresh planEnv and checks that the run resolved.
func collect(t testing.TB, db *DB, plan Plan) *exec.Batch {
	pe := newPlanEnv(t)
	var got *exec.Batch
	pe.eng.Go("q", func() { got = exec.Collect(plan(db, pe.scanBuilder(db))) })
	pe.eng.Run()
	pe.checkResolved(t)
	return got
}

// watched wraps a scan, counting its Open and Close calls; onBatch, if
// set, runs after each batch it hands on.
type watched struct {
	exec.Op
	opens, closes int
	onBatch       func()
}

func (w *watched) Open()  { w.opens++; w.Op.Open() }
func (w *watched) Close() { w.closes++; w.Op.Close() }
func (w *watched) Next() *exec.Batch {
	b := w.Op.Next()
	if b != nil && w.onBatch != nil {
		w.onBatch()
	}
	return b
}

func TestQ1MatchesReference(t *testing.T) {
	db := testDB(t)
	got := collect(t, db, Q1(nil))
	if got.N == 0 || got.N > 6 {
		t.Fatalf("Q1 groups = %d, want <= 6 (flag x status)", got.N)
	}
	// Reference computation straight from storage.
	snap := db.Snapshot("lineitem")
	n := snap.NumTuples()
	rf := snap.ReadString(db.Col("lineitem", "l_returnflag"), 0, n, nil)
	ls := snap.ReadString(db.Col("lineitem", "l_linestatus"), 0, n, nil)
	qty := snap.ReadFloat64(db.Col("lineitem", "l_quantity"), 0, n, nil)
	ship := snap.ReadInt64(db.Col("lineitem", "l_shipdate"), 0, n, nil)
	wantQty := make(map[string]float64)
	wantCnt := make(map[string]int64)
	for i := range rf {
		if ship[i] <= DateMax-90 {
			key := rf[i] + "|" + ls[i] + "|"
			wantQty[key] += qty[i]
			wantCnt[key]++
		}
	}
	if len(wantQty) != got.N {
		t.Fatalf("groups = %d, want %d", got.N, len(wantQty))
	}
	for i := 0; i < got.N; i++ {
		key := got.Vecs[0].Str[i] + "|" + got.Vecs[1].Str[i] + "|"
		if got.Vecs[2].F64[i] != wantQty[key] {
			t.Errorf("group %s sum_qty = %v, want %v", key, got.Vecs[2].F64[i], wantQty[key])
		}
		if got.Vecs[9].I64[i] != wantCnt[key] {
			t.Errorf("group %s count = %d, want %d", key, got.Vecs[9].I64[i], wantCnt[key])
		}
	}
}

func TestQ6MatchesReference(t *testing.T) {
	db := testDB(t)
	got := collect(t, db, Q6(nil))
	snap := db.Snapshot("lineitem")
	n := snap.NumTuples()
	ship := snap.ReadInt64(db.Col("lineitem", "l_shipdate"), 0, n, nil)
	disc := snap.ReadFloat64(db.Col("lineitem", "l_discount"), 0, n, nil)
	qty := snap.ReadFloat64(db.Col("lineitem", "l_quantity"), 0, n, nil)
	price := snap.ReadFloat64(db.Col("lineitem", "l_extendedprice"), 0, n, nil)
	var want float64
	for i := range ship {
		if ship[i] >= Date(1994, 1, 1) && ship[i] < Date(1995, 1, 1) &&
			disc[i] >= 0.05 && disc[i] <= 0.07 && qty[i] < 24 {
			want += price[i] * disc[i]
		}
	}
	if got.N != 1 {
		t.Fatalf("Q6 rows = %d", got.N)
	}
	diff := got.Vecs[0].F64[0] - want
	if diff < -1e-6 || diff > 1e-6 {
		t.Fatalf("Q6 = %v, want %v", got.Vecs[0].F64[0], want)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/answers_golden.txt")

// answersGolden holds every query's answer at two scales: its row count
// and answerHash.
const answersGolden = "testdata/answers_golden.txt"

// answerHash is the sum of one FNV-64a per row over the row's values
// (floats by their bits, strings length-prefixed): order-insensitive, so
// it names a multiset of rows whatever order an aggregate emits them in.
func answerHash(b *exec.Batch) uint64 {
	var sum uint64
	var w [8]byte
	for i := 0; i < b.N; i++ {
		h := fnv.New64a()
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(w[:], v)
			h.Write(w[:])
		}
		for _, v := range b.Vecs {
			switch v.T {
			case storage.Int64:
				put(uint64(v.I64[i]))
			case storage.Float64:
				put(math.Float64bits(v.F64[i]))
			case storage.String:
				put(uint64(len(v.Str[i])))
				h.Write([]byte(v.Str[i]))
			}
		}
		sum += h.Sum64()
	}
	return sum
}

// TestAll22QueriesRun executes every throughput query end to end at sf
// 0.005 (testDB) and at 0.01, the scale CI's figure cells run (Q21 keeps
// no row at 0.005), and holds each answer to answersGolden. The golden
// was recorded by the engine before the per-tuple predicates became one
// form; rewrite it with -update only for an intentional change to the
// data or to a plan's meaning.
func TestAll22QueriesRun(t *testing.T) {
	var got strings.Builder
	for _, sf := range []float64{0.005, 0.01} {
		db := Generate(sf, 1)
		for qi, plan := range Queries() {
			res := collect(t, db, plan)
			fmt.Fprintf(&got, "sf=%g Q%d rows=%d hash=%016x\n", sf, qi+1, res.N, answerHash(res))
		}
	}
	if *update {
		if err := os.WriteFile(answersGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(answersGolden)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("answers diverged from %s\n--- want\n%s--- got\n%s", answersGolden, want, got.String())
	}
}

func TestQueriesTouchExpectedTables(t *testing.T) {
	db := testDB(t)
	touched := make(map[string]bool)
	rec := func(table string, _ []string, _ []exec.RIDRange, _ bool) exec.Op {
		touched[table] = true
		return nil
	}
	for _, plan := range Queries() {
		plan(db, rec)
	}
	for _, want := range []string{"lineitem", "orders", "customer", "part", "partsupp", "supplier", "nation"} {
		if !touched[want] {
			t.Errorf("no query touches %s", want)
		}
	}
}

// TestPlanBuildReadsNothing: a plan factory only builds. Building each of
// the 22 plans over real scans asks the pool for no page; draining them
// afterwards opens and closes every scan a plan built exactly once, the
// side scans of Q9 and Q13 included, and leaves the pool idle.
func TestPlanBuildReadsNothing(t *testing.T) {
	db := testDB(t)
	pe := newPlanEnv(t)
	pe.eng.Go("q", func() {
		var plans []exec.Op
		for qi, plan := range Queries() {
			before := pe.ctx.Pool.Stats()
			plans = append(plans, plan(db, pe.scanBuilder(db)))
			if s := pe.ctx.Pool.Stats(); s != before {
				t.Errorf("building Q%d read through the pool: %+v, then %+v", qi+1, before, s)
			}
		}
		for _, op := range plans {
			exec.Drain(op)
		}
	})
	pe.eng.Run()
	pe.checkResolved(t)
}

// TestQ18CancelledInSubquery: Q18 cancelled while its inner aggregate is
// still pulling lineitem resolves with no row: the lineitem scan stops
// after that batch, the orders scan opens on a dead query and reads
// nothing, and every scan is closed with no pin left.
func TestQ18CancelledInSubquery(t *testing.T) {
	db := testDB(t)
	pe := newPlanEnv(t)
	qc := exec.NewQueryCtx(pe.ctx.RT)
	pe.ctx = pe.ctx.WithQuery(qc)
	rows, lineBatches := int64(-1), 0
	pe.eng.Go("q", func() {
		plan := Queries()[17](db, pe.scanBuilder(db))
		pe.scans[0].onBatch = func() { lineBatches++; qc.Cancel(exec.CauseClientCancel) }
		pe.scans[1].onBatch = func() { t.Error("orders read after the cancel") }
		rows = exec.Drain(plan)
	})
	pe.eng.Run()
	if rows != 0 || lineBatches != 1 {
		t.Errorf("rows = %d after %d lineitem batches, want 0 after 1", rows, lineBatches)
	}
	pe.checkResolved(t)
}
