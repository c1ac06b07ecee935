package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/abm"
	"repro/internal/buffer"
	"repro/internal/iosim"
	"repro/internal/pdt"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// These tests pin the two things a scan's vectors carry besides their
// values: the one-byte codes of String pages (Vec.Code), which must
// always match the strings they stand for, and the buffers of the
// context's free list, which must not go back while a batch that holds
// them can still be read.

// newCodesEnv builds a table of n tuples whose pages are narrow enough
// that most vectors straddle two: id (int64), tag (one-byte strings on
// every page, so every page has codes) and note (one-byte strings except
// a two-byte one every 700 tuples, so some pages have codes and some do
// not). It has an ABM, so Scan and CScan both run.
func newCodesEnv(t *testing.T, n int) *env {
	t.Helper()
	eng := sim.NewEngine()
	disk := iosim.New(rt.Sim(eng), iosim.Config{Bandwidth: 1e9, SeekLatency: 10 * time.Microsecond})
	pool := buffer.NewPool(rt.Sim(eng), disk, buffer.NewLRU(), 1<<30)
	cat := storage.NewCatalog()
	tb, err := cat.CreateTable("t", storage.Schema{
		{Name: "id", Type: storage.Int64, Width: 64},
		{Name: "tag", Type: storage.String, Width: 64},
		{Name: "note", Type: storage.String, Width: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := storage.NewColumnData()
	ids, tags, notes := make([]int64, n), make([]string, n), make([]string, n)
	for i := range ids {
		ids[i] = int64(i)
		tags[i] = "ABC"[i%3 : i%3+1]
		notes[i] = "xyz"[i%3 : i%3+1]
		if i%700 == 699 {
			notes[i] = "xy"
		}
	}
	d.I64[0], d.Str[1], d.Str[2] = ids, tags, notes
	snap, err := tb.Master().Append(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	e := &env{t: t, eng: eng, snap: snap, ctx: &Ctx{RT: rt.Sim(eng), Pool: pool, ReadAheadTuples: 2048}}
	e.abm = abm.New(rt.Sim(eng), disk, abm.Config{ChunkTuples: 1500, Capacity: 1 << 30})
	e.ctx.ABM = e.abm
	return e
}

// codeStats counts the String vectors a check saw with and without codes.
type codeStats struct{ coded, plain int }

// checkCodes fails t unless every String vector of b that carries codes
// holds exactly b.N of them, each the one byte of its string. It also
// gathers a coded vector's tuples onto a coded vector of one value, which
// must either carry the codes of all of them or none.
func checkCodes(t *testing.T, what string, b *Batch, st *codeStats) {
	t.Helper()
	valid := func(v *Vec, n int) error {
		if v.Code == nil {
			return nil
		}
		if len(v.Code) != n || len(v.Str) != n {
			return fmt.Errorf("%d codes for %d strings, batch of %d", len(v.Code), len(v.Str), n)
		}
		for i, s := range v.Str {
			if len(s) != 1 || s[0] != v.Code[i] {
				return fmt.Errorf("tuple %d: code %q for %q", i, v.Code[i], s)
			}
		}
		return nil
	}
	for c, v := range b.Vecs {
		if v.T != storage.String {
			continue
		}
		if err := valid(v, b.N); err != nil {
			t.Fatalf("%s: column %d: %v", what, c, err)
		}
		if v.Code == nil {
			st.plain++
			continue
		}
		st.coded++
		dst := Vec{T: storage.String, Str: []string{"A"}, Code: []byte{'A'}}
		dst.gather(v, identity(nil, b.N))
		if err := valid(&dst, b.N+1); err != nil {
			t.Fatalf("%s: column %d gathered: %v", what, c, err)
		}
	}
}

// codeCheck hands on its child's batches, checking each with checkCodes.
type codeCheck struct {
	Op
	t    *testing.T
	what string
	st   *codeStats
}

func (c *codeCheck) Next() *Batch {
	b := c.Op.Next()
	if b != nil {
		checkCodes(c.t, c.what, b, c.st)
	}
	return b
}

// TestPropertyScanCodes: over random PDTs (inserted rows with one- and
// two-byte strings, deletes, and modifications of both string columns to
// a one-byte value a page does not hold), random ranges and an optional
// predicate, every vector a Scan or CScan emits, alone as a plan's root or
// as an XChg part, carries codes only where they match its strings
// (checkCodes). Recycled buffers come back with codes of earlier queries
// beyond their length; none of them may show.
func TestPropertyScanCodes(t *testing.T) {
	const n = 9000
	e := newCodesEnv(t, n)
	rng := rand.New(rand.NewSource(53))
	var st codeStats
	e.run(func() {
		for round := 0; round < 24; round++ {
			var deltas *pdt.PDT
			total := int64(n)
			if round%4 != 0 {
				deltas = pdt.New(e.snap.Table().Schema, n)
				for k := 0; k < 30; k++ {
					switch rid := rng.Int63n(deltas.NumTuples()); rng.Intn(4) {
					case 0:
						deltas.InsertAt(rid, pdt.Row{pdt.IntVal(-rid), pdt.StrVal("I"), pdt.StrVal([]string{"q", "qq"}[rng.Intn(2)])})
					case 1:
						deltas.DeleteAt(rid)
					default:
						deltas.ModifyAt(rid, 1+rng.Intn(2), pdt.StrVal("Z"))
					}
				}
				total = deltas.NumTuples()
			}
			lo := rng.Int63n(total / 2)
			r := RIDRange{Lo: lo, Hi: lo + 1 + rng.Int63n(total-lo)}
			var pred *ScanPredicate
			if round%3 == 1 {
				pred = &ScanPredicate{Col: 0, Lo: rng.Int63n(n), Hi: rng.Int63n(n)}
				pred.Hi += pred.Lo
			}
			cols := []int{0, 1, 2}
			scans := []Op{
				&Scan{Ctx: e.ctx, Snap: e.snap, Cols: cols, Ranges: []RIDRange{r}, PDT: deltas, Pred: pred},
				&CScan{Ctx: e.ctx, Snap: e.snap, Cols: cols, Ranges: []RIDRange{r}, PDT: deltas, Pred: pred},
			}
			for _, s := range scans {
				what := fmt.Sprintf("round %d %T", round, s)
				Run(s, func(b *Batch) bool {
					checkCodes(t, what, b, &st)
					return true
				})
			}
			var parts []func() Op
			for _, pr := range PartitionRange(r.Lo, r.Hi, 3) {
				pr := pr
				parts = append(parts, func() Op {
					s := &Scan{Ctx: e.ctx, Snap: e.snap, Cols: cols, Ranges: []RIDRange{pr}, PDT: deltas, Pred: pred}
					return &codeCheck{Op: s, t: t, what: fmt.Sprintf("round %d XChg part", round), st: &st}
				})
			}
			Drain(&XChg{Ctx: e.ctx, Parts: parts})
		}
	})
	if st.coded == 0 || st.plain == 0 {
		t.Fatalf("%d coded and %d uncoded string vectors, want some of each", st.coded, st.plain)
	}
}

// vecData is v's backing array.
func vecData(v *Vec) unsafe.Pointer {
	switch v.T {
	case storage.Int64:
		return unsafe.Pointer(unsafe.SliceData(v.I64))
	case storage.Float64:
		return unsafe.Pointer(unsafe.SliceData(v.F64))
	default:
		return unsafe.Pointer(unsafe.SliceData(v.Str))
	}
}

// freeBuffers lists what ctx's free list holds, sorted: the backing
// arrays of its vector and int32 buffers, and its batches.
func freeBuffers(ctx *Ctx) []uintptr {
	var out []uintptr
	free := ctx.freeList()
	for _, list := range free.vecs {
		for i := range list {
			out = append(out, uintptr(vecData(&list[i])))
		}
	}
	for _, list := range free.ints {
		for _, b := range list {
			out = append(out, uintptr(unsafe.Pointer(unsafe.SliceData(b))))
		}
	}
	for _, b := range free.batches {
		out = append(out, uintptr(unsafe.Pointer(b)))
	}
	slices.Sort(out)
	return out
}

// q1Plan is a Q1-shaped plan over the codes table: a scan from the middle
// of a page (so every column copies), a filter, arithmetic and an
// aggregate grouped by the projection's columns groups (0 is tag, 1 is
// note), on one thread or as an XChg of three parts under a final
// aggregate.
func q1Plan(e *env, threads int, groups ...int) Op {
	g := len(groups)
	part := func(r RIDRange) Op {
		scan := &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0, 1, 2}, Ranges: []RIDRange{r}}
		proj := &Project{
			Child: &Select{Child: scan, Pred: NewCmp(">=", Col{Idx: 0, T: storage.Int64}, ConstI(300))},
			Exprs: []Expr{
				Col{Idx: 1, T: storage.String}, Col{Idx: 2, T: storage.String},
				NewArith("*", NewArith("+", Col{Idx: 0, T: storage.Int64}, ConstI(1)), NewArith("-", ConstI(9), Col{Idx: 0, T: storage.Int64})),
			},
		}
		return &HashAggr{Child: proj, Groups: groups, Aggs: []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: 2}}}
	}
	r := RIDRange{Lo: 100, Hi: 8000}
	if threads == 1 {
		return part(r)
	}
	var parts []func() Op
	for _, pr := range PartitionRange(r.Lo, r.Hi, threads) {
		pr := pr
		parts = append(parts, func() Op { return part(pr) })
	}
	return &HashAggr{Child: &XChg{Ctx: e.ctx, Parts: parts}, Groups: identityInts(g), Aggs: []AggSpec{{Kind: AggSum, Col: g}, {Kind: AggSum, Col: g + 1}}}
}

// identityInts is 0, 1, ..., n-1.
func identityInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestAllocsWarmContextTakesNoBuffers: a query's scans, projections and
// arithmetic take their vector buffers from the context's free list, its
// operators their output batches and its filter and aggregates their
// int32 scratch (selections, group ids, runs, direct tables), and hand
// them back when the root — the query's, or an XChg part's — closes. So
// a second identical query on a warm context makes none of them: the
// free list holds the very buffers and batches it held after the first,
// and the answers agree. Grouped by tag alone the aggregates have three
// groups and add them run by run; by tag and note, more than four.
func TestAllocsWarmContextTakesNoBuffers(t *testing.T) {
	for _, threads := range []int{1, 3} {
		for _, groups := range [][]int{{0, 1}, {0}} {
			e := newCodesEnv(t, 9000)
			e.run(func() {
				first := Collect(q1Plan(e, threads, groups...))
				warm := freeBuffers(e.ctx)
				free := e.ctx.freeList()
				for what, n := range map[string]int{
					"vector buffer": len(free.vecs[storage.Int64]), "batch": len(free.batches),
					"selection or group id vector": len(free.ints[posBuf]), "direct table": len(free.ints[tableBuf]),
				} {
					if n == 0 {
						t.Errorf("%d threads, groups %v: no %s went back to the free list", threads, groups, what)
					}
				}
				if len(groups) == 1 && len(free.ints[runsBuf]) == 0 {
					t.Errorf("%d threads, groups %v: no runs buffer went back to the free list", threads, groups)
				}
				second := Collect(q1Plan(e, threads, groups...))
				if got := freeBuffers(e.ctx); !slices.Equal(got, warm) {
					t.Errorf("%d threads, groups %v: free list of %d buffers after the first query, %d after the second; a buffer was made or lost",
						threads, groups, len(warm), len(got))
				}
				if !sameBatch(first, second) {
					t.Errorf("%d threads, groups %v: the second query's answer differs", threads, groups)
				}
			})
		}
	}
}

// TestFreeListBatchOutlivesProducer: a consumer that closes its plan and
// only then reads the batch it was handed (a limit met, a client gone)
// reads it intact while another query on the same context takes buffers
// from the free list: the plan's buffers go back only after its root is
// closed by whoever runs it, never at an operator's Close.
func TestFreeListBatchOutlivesProducer(t *testing.T) {
	e := newCodesEnv(t, 9000)
	e.run(func() {
		Drain(q1Plan(e, 1, 0, 1)) // warm the free list
		plan := func(lo int64) *Project {
			scan := &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0, 1, 2}, Ranges: []RIDRange{{Lo: lo, Hi: lo + 3000}}}
			return &Project{Child: scan, Exprs: []Expr{
				Col{Idx: 0, T: storage.Int64}, Col{Idx: 1, T: storage.String},
				NewArith("*", NewArith("+", Col{Idx: 0, T: storage.Int64}, ConstI(1)), ConstI(2)),
			}}
		}
		root, batches := plan(100), 0
		Run(root, func(b *Batch) bool {
			if batches++; batches < 2 {
				return true
			}
			want := cloneBatch(b)
			root.Close()
			Drain(plan(5100))
			Drain(q1Plan(e, 3, 0, 1))
			if !sameBatch(b, want) {
				t.Fatal("a batch changed after its plan closed, while other queries ran")
			}
			return false
		})
	})
}

// TestFreeListRealConcurrentQueries: on the real runtime, queries running
// at once on WithQuery copies of one context, each an XChg of three parts
// under a final aggregate, take and hand back buffers of one free list
// from many goroutines, and every one of them gets the answer a query
// running alone gets. Run it under -race.
func TestFreeListRealConcurrentQueries(t *testing.T) {
	e, r := newRealEnv(t, 20000)
	plan := func(ctx *Ctx) Op {
		var parts []func() Op
		for _, pr := range PartitionRange(100, 19900, 3) {
			pr := pr
			parts = append(parts, func() Op {
				scan := &Scan{Ctx: ctx, Snap: e.snap, Cols: []int{0, 1, 2}, Ranges: []RIDRange{pr}}
				id, val := Col{Idx: 0, T: storage.Int64}, Col{Idx: 1, T: storage.Float64}
				return &Project{
					Child: &Select{Child: scan, Pred: NewCmp(">=", id, ConstI(150))},
					Exprs: []Expr{Col{Idx: 2, T: storage.String}, NewArith("*", id, NewArith("+", id, ConstI(1))), NewArith("*", val, NewArith("-", val, ConstF(1)))},
				}
			})
		}
		return &HashAggr{Child: &XChg{Ctx: ctx, Parts: parts}, Groups: []int{0}, Aggs: []AggSpec{{Kind: AggSum, Col: 1}, {Kind: AggSum, Col: 2}, {Kind: AggCount}}}
	}
	want := Collect(plan(e.ctx.WithQuery(NewQueryCtx(r))))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < 5; q++ {
				if got := Collect(plan(e.ctx.WithQuery(NewQueryCtx(r)))); !sameBatch(got, want) {
					t.Error("a query running beside others got a different answer")
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(freeBuffers(e.ctx)) == 0 {
		t.Error("no buffer went back to the free list")
	}
}
