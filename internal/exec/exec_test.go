package exec

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/abm"
	"repro/internal/buffer"
	"repro/internal/iosim"
	"repro/internal/pdt"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// env bundles a full execution environment over one test table.
type env struct {
	t    testing.TB
	eng  *sim.Engine
	ctx  *Ctx
	snap *storage.Snapshot
	abm  *abm.ABM
}

// newEnv builds a 3-column table: id (int64), val (float64), tag (string).
func newEnv(t testing.TB, n int, withABM bool) *env {
	t.Helper()
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return newEnvIDs(t, ids, withABM)
}

// newEnvIDs is newEnv with the id column's values given.
func newEnvIDs(t testing.TB, ids []int64, withABM bool) *env {
	t.Helper()
	n := len(ids)
	eng := sim.NewEngine()
	disk := iosim.New(rt.Sim(eng), iosim.Config{Bandwidth: 1e9, SeekLatency: 10 * time.Microsecond})
	pool := buffer.NewPool(rt.Sim(eng), disk, buffer.NewLRU(), 1<<30)

	cat := storage.NewCatalog()
	tb, err := cat.CreateTable("t", storage.Schema{
		{Name: "id", Type: storage.Int64, Width: 8},
		{Name: "val", Type: storage.Float64, Width: 8},
		{Name: "tag", Type: storage.String, Width: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := storage.NewColumnData()
	vals := make([]float64, n)
	tags := make([]string, n)
	for i := 0; i < n; i++ {
		vals[i] = float64(i) / 2
		if i%2 == 0 {
			tags[i] = "A"
		} else {
			tags[i] = "B"
		}
	}
	d.I64[0] = ids
	d.F64[1] = vals
	d.Str[2] = tags
	snap, err := tb.Master().Append(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	e := &env{
		t:    t,
		eng:  eng,
		snap: snap,
		ctx:  &Ctx{RT: rt.Sim(eng), Pool: pool, ReadAheadTuples: 8192},
	}
	if withABM {
		e.abm = abm.New(rt.Sim(eng), disk, abm.Config{ChunkTuples: 2048, Capacity: 1 << 30})
		e.ctx.ABM = e.abm
	}
	return e
}

// run executes fn as a simulated process and completes the simulation,
// after which the pool and the ABM must balance their books at idle.
func (e *env) run(fn func()) {
	e.eng.Go("test", func() {
		fn()
		if e.abm != nil {
			e.abm.Stop()
		}
	})
	e.eng.Run()
	err := e.ctx.Pool.Check(true)
	if e.abm != nil {
		err = errors.Join(err, e.abm.Check(true))
	}
	if err != nil {
		e.t.Error(err)
	}
}

func TestScanReadsAllColumns(t *testing.T) {
	e := newEnv(t, 5000, false)
	e.run(func() {
		s := &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0, 1, 2}, Ranges: []RIDRange{{0, 5000}}}
		res := Collect(s)
		if res.N != 5000 {
			t.Fatalf("N = %d", res.N)
		}
		if res.Vecs[0].I64[4999] != 4999 || res.Vecs[1].F64[10] != 5 || res.Vecs[2].Str[1] != "B" {
			t.Fatal("scan values wrong")
		}
	})
}

func TestScanRange(t *testing.T) {
	e := newEnv(t, 5000, false)
	e.run(func() {
		s := &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{100, 200}, {4000, 4010}}}
		res := Collect(s)
		if res.N != 110 {
			t.Fatalf("N = %d", res.N)
		}
		if res.Vecs[0].I64[0] != 100 || res.Vecs[0].I64[100] != 4000 {
			t.Fatal("range boundaries wrong")
		}
	})
}

func TestScanWithPDTMerge(t *testing.T) {
	e := newEnv(t, 3000, false)
	p := pdt.New(e.snap.Table().Schema, 3000)
	p.DeleteAt(0)
	p.InsertAt(5, pdt.Row{pdt.IntVal(-1), pdt.FloatVal(0), pdt.StrVal("Z")})
	p.ModifyAt(10, 0, pdt.IntVal(999))
	e.run(func() {
		s := &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0, 2}, Ranges: []RIDRange{{0, p.NumTuples()}}, PDT: p}
		res := Collect(s)
		if int64(res.N) != p.NumTuples() {
			t.Fatalf("N = %d, want %d", res.N, p.NumTuples())
		}
		// Image: 1,2,3,4,5,-1,6,...; position 10 was stable SID 10 before
		// shifts: delete(-1) and insert(+1) cancel, so RID 10 = SID 10.
		if res.Vecs[0].I64[0] != 1 {
			t.Fatalf("delete not applied: %d", res.Vecs[0].I64[0])
		}
		if res.Vecs[0].I64[5] != -1 || res.Vecs[1].Str[5] != "Z" {
			t.Fatalf("insert not applied: %d %q", res.Vecs[0].I64[5], res.Vecs[1].Str[5])
		}
		if res.Vecs[0].I64[10] != 999 {
			t.Fatalf("modify not applied: %d", res.Vecs[0].I64[10])
		}
	})
}

func TestCScanMatchesScan(t *testing.T) {
	e := newEnv(t, 10000, true)
	e.run(func() {
		want := Collect(&Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, 10000}}})
		got := Collect(&CScan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, 10000}}})
		if got.N != want.N {
			t.Fatalf("N = %d, want %d", got.N, want.N)
		}
		// CScan output is out-of-order: compare as multisets.
		a := append([]int64{}, got.Vecs[0].I64...)
		b := append([]int64{}, want.Vecs[0].I64...)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("multiset mismatch at %d", i)
			}
		}
	})
}

func TestCScanWithPDT(t *testing.T) {
	e := newEnv(t, 6000, true)
	p := pdt.New(e.snap.Table().Schema, 6000)
	p.DeleteAt(2500)
	p.InsertAt(100, pdt.Row{pdt.IntVal(-7), pdt.FloatVal(1), pdt.StrVal("Q")})
	p.ModifyAt(4000, 0, pdt.IntVal(-8))
	e.run(func() {
		want := Collect(&Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, p.NumTuples()}}, PDT: p})
		got := Collect(&CScan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, p.NumTuples()}}, PDT: p})
		if got.N != want.N {
			t.Fatalf("N = %d, want %d", got.N, want.N)
		}
		a := append([]int64{}, got.Vecs[0].I64...)
		b := append([]int64{}, want.Vecs[0].I64...)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("multiset mismatch at %d: %d vs %d", i, a[i], b[i])
			}
		}
	})
}

func TestSelectFilter(t *testing.T) {
	e := newEnv(t, 4000, false)
	e.run(func() {
		plan := &Select{
			Child: &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0, 2}, Ranges: []RIDRange{{0, 4000}}},
			Pred:  StrEq(1, "A"),
		}
		res := Collect(plan)
		if res.N != 2000 {
			t.Fatalf("N = %d, want 2000", res.N)
		}
		for _, v := range res.Vecs[0].I64 {
			if v%2 != 0 {
				t.Fatalf("odd id %d passed filter", v)
			}
		}
	})
}

func TestProjectArithmetic(t *testing.T) {
	e := newEnv(t, 100, false)
	e.run(func() {
		plan := &Project{
			Child: &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{1}, Ranges: []RIDRange{{0, 100}}},
			Exprs: []Expr{NewArith("*", Col{0, storage.Float64}, ConstF(2))},
		}
		res := Collect(plan)
		for i := 0; i < res.N; i++ {
			if res.Vecs[0].F64[i] != float64(i) {
				t.Fatalf("project[%d] = %v", i, res.Vecs[0].F64[i])
			}
		}
	})
}

func TestHashAggrGrouped(t *testing.T) {
	e := newEnv(t, 4000, false)
	e.run(func() {
		plan := &HashAggr{
			Child:  &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{2, 0}, Ranges: []RIDRange{{0, 4000}}},
			Groups: []int{0},
			Aggs:   []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: 1}, {Kind: AggMin, Col: 1}, {Kind: AggMax, Col: 1}},
		}
		res := Collect(plan)
		if res.N != 2 {
			t.Fatalf("groups = %d", res.N)
		}
		// Deterministic order: "A" then "B".
		if res.Vecs[0].Str[0] != "A" || res.Vecs[0].Str[1] != "B" {
			t.Fatalf("group order: %v", res.Vecs[0].Str)
		}
		if res.Vecs[1].I64[0] != 2000 || res.Vecs[1].I64[1] != 2000 {
			t.Fatalf("counts: %v", res.Vecs[1].I64)
		}
		// Sum of even ids 0..3998 = 2000*1999*2/2... compute directly.
		var wantA, wantB int64
		for i := int64(0); i < 4000; i++ {
			if i%2 == 0 {
				wantA += i
			} else {
				wantB += i
			}
		}
		if res.Vecs[2].I64[0] != wantA || res.Vecs[2].I64[1] != wantB {
			t.Fatalf("sums: %v, want %d %d", res.Vecs[2].I64, wantA, wantB)
		}
		if res.Vecs[3].I64[0] != 0 || res.Vecs[4].I64[1] != 3999 {
			t.Fatalf("min/max wrong: %v %v", res.Vecs[3].I64, res.Vecs[4].I64)
		}
	})
}

func TestHashAggrGlobal(t *testing.T) {
	e := newEnv(t, 1000, false)
	e.run(func() {
		plan := &HashAggr{
			Child: &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, 1000}}},
			Aggs:  []AggSpec{{Kind: AggCount}, {Kind: AggAvg, Col: 0}},
		}
		res := Collect(plan)
		if res.N != 1 || res.Vecs[0].I64[0] != 1000 {
			t.Fatalf("global agg: %+v", res)
		}
		if res.Vecs[1].F64[0] != 499.5 {
			t.Fatalf("avg = %v", res.Vecs[1].F64[0])
		}
	})
}

func TestHashJoin(t *testing.T) {
	e := newEnv(t, 1000, false)
	e.run(func() {
		// Join table with itself on id: every row matches exactly once.
		j := &HashJoin{
			Build:    &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0, 2}, Ranges: []RIDRange{{0, 500}}},
			Probe:    &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0, 1}, Ranges: []RIDRange{{0, 1000}}},
			BuildKey: 0,
			ProbeKey: 0,
		}
		res := Collect(j)
		if res.N != 500 {
			t.Fatalf("join N = %d, want 500", res.N)
		}
		if len(res.Vecs) != 4 {
			t.Fatalf("join width = %d", len(res.Vecs))
		}
	})
}

func TestSortAndLimit(t *testing.T) {
	e := newEnv(t, 500, false)
	e.run(func() {
		plan := &Sort{
			Child: &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, 500}}},
			By:    []SortSpec{{Col: 0, Desc: true}},
			Limit: 10,
		}
		res := Collect(plan)
		if res.N != 10 {
			t.Fatalf("N = %d", res.N)
		}
		for i := 0; i < 10; i++ {
			if res.Vecs[0].I64[i] != int64(499-i) {
				t.Fatalf("sort[%d] = %d", i, res.Vecs[0].I64[i])
			}
		}
	})
}

func TestXChgParallelAggregation(t *testing.T) {
	e := newEnv(t, 8000, false)
	e.ctx.CPU = NewCPU(rt.Sim(e.eng), 4)
	e.ctx.PerTupleCPU = 10 * time.Nanosecond
	e.run(func() {
		parts := make([]func() Op, 0, 4)
		for _, r := range PartitionRange(0, 8000, 4) {
			r := r
			parts = append(parts, func() Op {
				return &HashAggr{
					Child: &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{r}},
					Aggs:  []AggSpec{{Kind: AggSum, Col: 0}, {Kind: AggCount}},
				}
			})
		}
		plan := &HashAggr{
			Child: &XChg{Ctx: e.ctx, Parts: parts},
			Aggs:  []AggSpec{{Kind: AggSum, Col: 0}, {Kind: AggSum, Col: 1}},
		}
		res := Collect(plan)
		if res.N != 1 {
			t.Fatalf("N = %d", res.N)
		}
		var want int64
		for i := int64(0); i < 8000; i++ {
			want += i
		}
		if res.Vecs[0].I64[0] != want || res.Vecs[1].I64[0] != 8000 {
			t.Fatalf("parallel sum = %d count = %d", res.Vecs[0].I64[0], res.Vecs[1].I64[0])
		}
	})
}

func TestPartitionRangeEq1(t *testing.T) {
	// Equation 1: [a..b) split into n contiguous, disjoint, covering parts.
	f := func(aRaw, span uint16, nRaw uint8) bool {
		a := int64(aRaw)
		b := a + int64(span)
		n := int(nRaw)%8 + 1
		parts := PartitionRange(a, b, n)
		if len(parts) != n {
			return false
		}
		if parts[0].Lo != a || parts[n-1].Hi != b {
			return false
		}
		for i := 1; i < n; i++ {
			if parts[i].Lo != parts[i-1].Hi {
				return false
			}
		}
		// Near-equal: sizes differ by at most 1.
		minSz, maxSz := int64(1<<62), int64(0)
		for _, p := range parts {
			sz := p.Hi - p.Lo
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		return span == 0 || maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScanChargesCPUTime(t *testing.T) {
	e := newEnv(t, 5000, false)
	e.ctx.CPU = NewCPU(rt.Sim(e.eng), 1)
	e.ctx.PerTupleCPU = 1000 * time.Nanosecond
	var elapsed sim.Time
	e.run(func() {
		Drain(&Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, 5000}}})
		elapsed = e.eng.Now()
	})
	// 5000 tuples * 1 us = 5 ms of CPU, plus I/O.
	if elapsed < sim.Time(5*time.Millisecond) {
		t.Fatalf("elapsed %v, want >= 5ms of CPU time", elapsed)
	}
}

func TestCPUContention(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(rt.Sim(eng), 2)
	var end sim.Time
	wg := eng.NewWaitGroup()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		eng.Go("w", func() {
			defer wg.Done()
			cpu.Work(nil, 10*time.Millisecond)
		})
	}
	eng.Go("driver", func() {
		wg.Wait()
		end = eng.Now()
	})
	eng.Run()
	// 4 bursts of 10ms on 2 cores = 20ms wall-clock.
	if end != sim.Time(20*time.Millisecond) {
		t.Fatalf("end = %v, want 20ms", end)
	}
}

func TestExprBetweenAndIn(t *testing.T) {
	e := newEnv(t, 100, false)
	e.run(func() {
		plan := &Select{
			Child: &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0}, Ranges: []RIDRange{{0, 100}}},
			Pred: NewAnd(
				Between(Col{0, storage.Int64}, 10, 20),
				InI64(0, map[int64]bool{10: true, 15: true, 99: true}),
			),
		}
		res := Collect(plan)
		if res.N != 2 {
			t.Fatalf("N = %d, want 2 (10 and 15)", res.N)
		}
	})
}

// batchSource replays one prepared batch a fixed number of times.
type batchSource struct {
	types []storage.ColumnType
	b     *Batch
	times int
	left  int
}

func (s *batchSource) Schema() []storage.ColumnType { return s.types }
func (s *batchSource) Open()                        { s.left = s.times }
func (s *batchSource) Close()                       {}
func (s *batchSource) Next() *Batch {
	if s.left == 0 {
		return nil
	}
	s.left--
	return s.b
}

// TestHashAggrMixedKeyNoPerTupleAlloc groups on an int, a float and a
// string column at once. The groups, their order and their aggregates
// must be those of the key the operator has always grouped by (each value
// rendered %d, %g or verbatim, '|'-terminated, groups sorted by it) — and
// building that key must allocate per new group, not per tuple: a batch
// that brings no new group allocates nothing.
func TestHashAggrMixedKeyNoPerTupleAlloc(t *testing.T) {
	types := []storage.ColumnType{storage.Int64, storage.Float64, storage.String, storage.Int64}
	b := NewBatch(types)
	floats := []float64{0.5, -3, 1e21, 1.0 / 3, 0}
	strs := []string{"", "A", "N|O", "réf"}
	type want struct {
		n, sum int64
	}
	ref := map[string]*want{}
	for i := 0; i < VectorSize; i++ {
		k := int64(i%7) - 3
		f := floats[i%len(floats)]
		s := strs[i%len(strs)]
		b.Vecs[0].I64 = append(b.Vecs[0].I64, k)
		b.Vecs[1].F64 = append(b.Vecs[1].F64, f)
		b.Vecs[2].Str = append(b.Vecs[2].Str, s)
		b.Vecs[3].I64 = append(b.Vecs[3].I64, int64(i))
		key := fmt.Sprintf("%d|%g|%s|", k, f, s)
		if ref[key] == nil {
			ref[key] = &want{}
		}
		ref[key].n++
		ref[key].sum += int64(i)
	}
	b.N = VectorSize
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	run := func(times int) *Batch {
		return Collect(&HashAggr{
			Child:  &batchSource{types: types, b: b, times: times},
			Groups: []int{0, 1, 2},
			Aggs:   []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: 3}},
		})
	}
	res := run(3)
	if res.N != len(keys) {
		t.Fatalf("%d groups, want %d", res.N, len(keys))
	}
	for i, key := range keys {
		got := fmt.Sprintf("%d|%g|%s|", res.Vecs[0].I64[i], res.Vecs[1].F64[i], res.Vecs[2].Str[i])
		if got != key {
			t.Fatalf("group %d is %q, want %q", i, got, key)
		}
		if w := ref[key]; res.Vecs[3].I64[i] != 3*w.n || res.Vecs[4].I64[i] != 3*w.sum {
			t.Fatalf("group %q: count %d sum %d, want %d %d", key, res.Vecs[3].I64[i], res.Vecs[4].I64[i], 3*w.n, 3*w.sum)
		}
	}

	one := testing.AllocsPerRun(20, func() { run(1) })
	many := testing.AllocsPerRun(20, func() { run(33) })
	if many > one {
		t.Fatalf("32 more batches of %d tuples in known groups cost %.0f allocations, want 0 (%.0f for one batch, %d groups)",
			VectorSize, many-one, one, len(keys))
	}
}
