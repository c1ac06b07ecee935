package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/storage"
)

// The differential tests run the vector primitives against the per-value
// engine of reference_test.go over random batches and demand the same
// answer to the bit; the allocation tests count what a steady-state
// vector costs. Nothing here measures time.

var (
	edgeFloats = []float64{math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1, -1, 0.05, 0.07, 24, 1e21, -1e-7}
	edgeInts   = []int64{0, 1, -1, 7, math.MaxInt64, math.MinInt64, 2466, 1 << 32}
	edgeStrs   = []string{"", "A", "F", "N", "O", "R", "AB", "réf", "a b", "zz"}
)

// kernelTypes is the schema every random batch has: two columns of each
// type, so any comparison has a column of its own type to meet.
var kernelTypes = []storage.ColumnType{
	storage.Int64, storage.Int64, storage.Float64, storage.Float64, storage.String, storage.String,
}

// randBatch draws n tuples over kernelTypes, mixing edge values with
// values from a domain of the given cardinality (small domains make
// equal pairs and repeated groups likely).
func randBatch(rng *rand.Rand, n, card int) *Batch {
	b := NewBatch(kernelTypes)
	for i := 0; i < n; i++ {
		for c, v := range b.Vecs {
			edge := rng.Intn(8) == 0
			switch v.T {
			case storage.Int64:
				x := int64(rng.Intn(card)) - int64(card/2)
				if edge {
					x = edgeInts[rng.Intn(len(edgeInts))]
				}
				if c == 1 && x == 0 {
					x = 3 // column 1 is the divisor of the integer "/" cases
				}
				v.I64 = append(v.I64, x)
			case storage.Float64:
				x := float64(rng.Intn(card))/4 - 1
				if edge {
					x = edgeFloats[rng.Intn(len(edgeFloats))]
				}
				v.F64 = append(v.F64, x)
			case storage.String:
				x := fmt.Sprint("s", rng.Intn(card))
				if edge {
					x = edgeStrs[rng.Intn(len(edgeStrs))]
				}
				v.Str = append(v.Str, x)
			}
		}
	}
	b.N = n
	return b
}

func cloneBatch(b *Batch) *Batch { return copyBatch(b.Types(), b) }

// sameVec reports whether two vectors hold the same values, floats
// compared by their bits (0 differs from -0) except that any NaN equals
// any NaN: which payload "NaN + NaN" keeps depends on the operand order
// the compiler picked for the add instruction.
func sameVec(a, b *Vec) bool {
	if a.T != b.T || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		switch a.T {
		case storage.Int64:
			if a.I64[i] != b.I64[i] {
				return false
			}
		case storage.Float64:
			x, y := a.F64[i], b.F64[i]
			if math.Float64bits(x) != math.Float64bits(y) && !(x != x && y != y) {
				return false
			}
		case storage.String:
			if a.Str[i] != b.Str[i] {
				return false
			}
		}
	}
	return true
}

func sameBatch(a, b *Batch) bool {
	if a.N != b.N || len(a.Vecs) != len(b.Vecs) {
		return false
	}
	for c := range a.Vecs {
		if !sameVec(a.Vecs[c], b.Vecs[c]) {
			return false
		}
	}
	return true
}

// oddExpr is a predicate the engine knows nothing about — the stand-in
// for an Expr defined outside this package: it cannot narrow, so a Select
// or an And must take it through its 0/1 Eval.
type oddExpr struct{ col int }

func (oddExpr) Type() storage.ColumnType { return storage.Int64 }

func (e oddExpr) Eval(b *Batch, out *Vec) {
	out.Reset()
	out.T = storage.Int64
	for _, v := range b.Vecs[e.col].I64 {
		out.I64 = append(out.I64, v&1)
	}
}

func col(i int) Col { return Col{Idx: i, T: kernelTypes[i]} }

var (
	cmpOps   = []string{"<", "<=", "==", "!=", ">=", ">"}
	arithOps = []string{"+", "-", "*", "/"}
)

// kernelExprs is every operator over every operand shape — column,
// literal on either side, computed operand — for all three types, plus
// conjunctions and disjunctions of them. A fresh set per call: nodes
// carry scratch state.
func kernelExprs(rng *rand.Rand) (preds, values []Expr) {
	ki := ConstI(edgeInts[rng.Intn(len(edgeInts))])
	kf := ConstF(edgeFloats[rng.Intn(len(edgeFloats))])
	if rng.Intn(2) == 0 {
		ki, kf = ConstI(rng.Intn(9)-4), ConstF(float64(rng.Intn(9))/4-1)
	}
	for i := range kernelTypes {
		values = append(values, col(i))
	}
	for _, op := range arithOps {
		div := op == "/"
		values = append(values,
			NewArith(op, col(2), col(3)), NewArith(op, col(2), kf), NewArith(op, kf, col(3)), NewArith(op, kf, ConstF(2)),
			NewArith(op, NewArith("-", ConstF(1), col(2)), NewArith("*", col(3), col(2))),
			NewArith(op, col(0), col(1)), NewArith(op, ConstI(5), col(1)))
		if !div || ki != 0 {
			values = append(values, NewArith(op, col(0), ki))
		}
	}
	for _, op := range cmpOps {
		preds = append(preds,
			NewCmp(op, col(0), col(1)), NewCmp(op, col(0), ki), NewCmp(op, ki, col(1)), NewCmp(op, ki, ConstI(0)),
			NewCmp(op, col(2), col(3)), NewCmp(op, col(2), kf), NewCmp(op, kf, col(3)),
			NewCmp(op, NewArith("*", col(2), col(3)), kf), NewCmp(op, kf, NewArith("+", col(2), kf)),
			NewCmp(op, col(4), col(5)))
	}
	pick := func() Expr { return preds[rng.Intn(len(preds))] }
	for i := 0; i < 12; i++ {
		preds = append(preds,
			NewAnd(pick(), pick()),
			NewAnd(pick(), oddExpr{col: rng.Intn(2)}, pick()),
			NewOr(pick(), NewAnd(pick(), pick()), oddExpr{col: 0}),
			NewAnd(NewOr(pick(), pick()), Between(col(0), -3, 3)),
			NewAnd(), NewOr())
	}
	return preds, values
}

var kernelSizes = []int{0, 1, 2, 63, VectorSize, VectorSize + 500}

func TestDifferentialExprEval(t *testing.T) {
	rng := rand.New(rand.NewSource(20260930))
	for round := 0; round < 6; round++ {
		for _, n := range kernelSizes {
			b := randBatch(rng, n, []int{1, 3, 40}[round%3])
			keep := cloneBatch(b)
			preds, values := kernelExprs(rng)
			for i, e := range append(preds, values...) {
				var got, want Vec
				// Twice through the same node and the same out: scratch
				// left over from one vector must not leak into the next.
				e.Eval(b, &got)
				e.Eval(b, &got)
				refEval(e, b, &want)
				if !sameVec(&got, &want) {
					t.Fatalf("round %d n=%d expr %d (%T %+v): primitives and reference differ", round, n, i, e, e)
				}
				// out is the caller's to reuse: scribbling over it must not
				// reach the input either.
				for j := 0; j < got.Len(); j++ {
					got.I64, got.F64, got.Str = append(got.I64[:0], -7), append(got.F64[:0], -7), append(got.Str[:0], "scribble")
				}
				if !sameBatch(b, keep) {
					t.Fatalf("round %d n=%d expr %d (%T): Eval wrote into its input or aliased it into out", round, n, i, e)
				}
			}
		}
	}
}

// manyBatches replays prepared batches through one reused batch, the way
// a scan hands out the same vectors refilled on every Next.
type manyBatches struct {
	batches []*Batch
	cur     *Batch
	next    int
}

func (s *manyBatches) Schema() []storage.ColumnType { return kernelTypes }
func (s *manyBatches) Open()                        { s.next, s.cur = 0, NewBatch(kernelTypes) }
func (s *manyBatches) Close()                       {}
func (s *manyBatches) Next() *Batch {
	if s.next == len(s.batches) {
		return nil
	}
	src := s.batches[s.next]
	s.next++
	s.cur.Reset()
	for c, v := range s.cur.Vecs {
		v.appendVec(src.Vecs[c])
	}
	s.cur.N = src.N
	return s.cur
}

func randBatches(rng *rand.Rand, card int) []*Batch {
	var out []*Batch
	for _, n := range kernelSizes {
		if n > 0 {
			out = append(out, randBatch(rng, n, card))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestDifferentialSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	none, all := NewCmp("<", col(0), col(0)), NewCmp("==", col(4), col(4))
	for round := 0; round < 8; round++ {
		batches := randBatches(rng, []int{1, 3, 40}[round%3])
		preds, _ := kernelExprs(rng)
		preds = append(preds, none, all, oddExpr{col: 1}, StrEq(4, "A"), NewAnd(all, all), NewAnd(all, none))
		for i, p := range preds {
			got := Collect(&Select{Child: &manyBatches{batches: batches}, Pred: p})
			want := Collect(&refSelect{Child: &manyBatches{batches: batches}, Pred: p})
			if !sameBatch(got, want) {
				t.Fatalf("round %d pred %d (%T %+v): %d rows, reference %d", round, i, p, p, got.N, want.N)
			}
		}
	}
}

// TestDifferentialWhere holds the five per-tuple constructors to the types
// they replaced (reference_test.go) over random batches with empty,
// non-ASCII and invalid UTF-8 strings, constants longer than the values,
// and empty sets or sets with negative keys. Each is checked alone, as the
// last conjunct of an And (so it narrows a selection a Cmp already cut),
// and under the "== 0" negation Q13, Q16 and Q22 use: Eval must give the
// reference's 0/1 vector, and narrow over a random ascending selection
// must keep exactly the selected positions the reference marks 1.
func TestDifferentialWhere(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	strs := []string{"", "a", "ab", "abc", "b", "ba", "bab", "é", "éa", "aé", "日本", "日本語", "\xff", "\xffa"}
	ints := []int64{math.MinInt64, -7, -1, 0, 1, 2, 7, 1 << 40, math.MaxInt64}
	types := []storage.ColumnType{storage.Int64, storage.String}
	pos := NewCmp(">", Col{0, storage.Int64}, ConstI(0))
	for round := 0; round < 300; round++ {
		b := NewBatch(types)
		b.N = rng.Intn(VectorSize + 1)
		for i := 0; i < b.N; i++ {
			b.Vecs[0].I64 = append(b.Vecs[0].I64, ints[rng.Intn(len(ints))])
			b.Vecs[1].Str = append(b.Vecs[1].Str, strs[rng.Intn(len(strs))])
		}
		s := strs[rng.Intn(len(strs))]
		iset, sset := map[int64]bool{}, map[string]bool{}
		for k := rng.Intn(4); k > 0; k-- {
			iset[ints[rng.Intn(len(ints))]] = true
			sset[strs[rng.Intn(len(strs))]] = true
		}
		keep := rng.Intn(4) // a selection keeps each position with probability keep/3
		for _, c := range []struct {
			name      string
			got, want Expr
		}{
			{"StrEq", StrEq(1, s), refStrEq{1, s}},
			{"StrPrefix", StrPrefix(1, s), refStrPrefix{1, s}},
			{"StrContains", StrContains(1, s), refStrContains{1, s}},
			{"InI64", InI64(0, iset), &refInI64{Expr: Col{0, storage.Int64}, Set: iset}},
			{"InStr", InStr(1, sset), refInStr{1, sset}},
		} {
			for _, f := range []struct {
				form      string
				got, want Expr
			}{
				{"alone", c.got, c.want},
				{"and", NewAnd(pos, c.got), NewAnd(pos, c.want)},
				{"not", NewCmp("==", c.got, ConstI(0)), NewCmp("==", c.want, ConstI(0))},
			} {
				var got, want Vec
				f.got.Eval(b, &got)
				refEval(f.want, b, &want)
				if !slices.Equal(got.I64, want.I64) {
					t.Fatalf("round %d %s %s (%q %v %v): Eval %v, reference %v", round, c.name, f.form, s, iset, sset, got.I64, want.I64)
				}
				var sel, wantSel []int32
				for i := 0; i < b.N; i++ {
					if rng.Intn(3) < keep {
						sel = append(sel, int32(i))
						if want.I64[i] != 0 {
							wantSel = append(wantSel, int32(i))
						}
					}
				}
				if gotSel := f.got.(narrower).narrow(b, sel); !slices.Equal(gotSel, wantSel) {
					t.Fatalf("round %d %s %s (%q %v %v): narrow kept %v, reference %v", round, c.name, f.form, s, iset, sset, gotSel, wantSel)
				}
			}
		}
	}
}

// TestKernelSelectPassThrough: a batch in which every tuple qualifies is
// the child's own, and a consumer that reads each result before its next
// call — all the Operator contract entitles it to — sees every tuple
// intact whichever way the batches alternate between passed through and
// gathered; the child's batch is never written.
func TestKernelSelectPassThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mk := func(lo, hi int64) *Batch {
		b := randBatch(rng, 700, 40)
		for i := range b.Vecs[0].I64 {
			b.Vecs[0].I64[i] = lo + int64(i)%(hi-lo)
		}
		return b
	}
	// x in [0,10) qualifies: all, some, all, none, some, all.
	batches := []*Batch{mk(0, 10), mk(5, 15), mk(0, 10), mk(10, 20), mk(8, 12), mk(0, 10)}
	src := &manyBatches{batches: batches}
	sel := &Select{Child: src, Pred: NewAnd(NewCmp(">=", col(0), ConstI(0)), NewCmp("<", col(0), ConstI(10)))}
	sel.Open()
	defer sel.Close()
	passed := 0
	for i, in := range batches {
		want := Collect(&refSelect{Child: &manyBatches{batches: batches[i : i+1]}, Pred: sel.Pred})
		if want.N == 0 {
			continue // Select skips it
		}
		got := sel.Next()
		if got == nil || !sameBatch(got, want) {
			t.Fatalf("batch %d: wrong survivors", i)
		}
		if got == src.cur {
			passed++
			if want.N != in.N {
				t.Fatalf("batch %d: passed through with %d of %d tuples qualifying", i, want.N, in.N)
			}
		}
		if !sameBatch(src.cur, in) {
			t.Fatalf("batch %d: Select wrote into its child's batch", i)
		}
	}
	if sel.Next() != nil {
		t.Fatal("extra batch")
	}
	if passed != 3 {
		t.Fatalf("%d batches passed through, want 3", passed)
	}
}

func TestDifferentialHashAggr(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	aggs := []AggSpec{
		{Kind: AggCount}, {Kind: AggSum, Col: 2}, {Kind: AggAvg, Col: 3}, {Kind: AggMin, Col: 2}, {Kind: AggMax, Col: 3},
		{Kind: AggSum, Col: 0}, {Kind: AggAvg, Col: 1}, {Kind: AggMin, Col: 0}, {Kind: AggMax, Col: 1},
	}
	groupings := [][]int{nil, {0}, {2}, {4}, {4, 5}, {0, 2, 4}, {5, 1}, {3, 2}}
	for _, card := range []int{1, 4, 140, 3000} {
		batches := randBatches(rng, card)
		for _, groups := range groupings {
			got := Collect(&HashAggr{Child: &manyBatches{batches: batches}, Groups: groups, Aggs: aggs})
			want := Collect(&refHashAggr{Child: &manyBatches{batches: batches}, Groups: groups, Aggs: aggs})
			if !sameBatch(got, want) {
				t.Fatalf("cardinality %d groups %v: %d groups, reference %d; rows, order or sums differ", card, groups, got.N, want.N)
			}
			if len(groups) > 0 && card == 3000 && got.N <= VectorSize {
				t.Fatalf("cardinality %d groups %v: only %d groups, want more than a vector", card, groups, got.N)
			}
		}
	}
	// No tuple, no group: a global aggregate over nothing yields no row.
	if res := Collect(&HashAggr{Child: &manyBatches{}, Aggs: aggs}); res.N != 0 {
		t.Fatalf("global aggregate over an empty input: %d rows", res.N)
	}
}

// TestDifferentialHashAggrDirect drives HashAggr's direct table: string
// group columns of at most one byte ("", "\x00" and "\xff" among them,
// and "|", whose keys the map path cannot tell apart from others), each
// batch drawing from a few values of its own. In every other round one
// batch in the middle of the stream carries a longer string, so the map
// path and the table take turns on one aggregate and each must find the
// groups the other opened. {4, 0} groups a string with a number and must
// never use the table.
func TestDifferentialHashAggrDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	short := []string{"", "\x00", "\xff", "A", "N", "R", "|"}
	long := []string{"AB", "\x00\x00", "||"}
	aggs := []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: 2}, {Kind: AggAvg, Col: 3}, {Kind: AggMin, Col: 0}, {Kind: AggMax, Col: 2}}
	groupings := [][]int{{4}, {4, 5}, {5, 4}, {4, 5, 4}, {4, 0}}
	for round := 0; round < 16; round++ {
		batches := randBatches(rng, 3)
		for _, b := range batches {
			pick := rng.Perm(len(short))[:1+rng.Intn(3)]
			for _, c := range []int{4, 5} {
				for i := range b.Vecs[c].Str {
					b.Vecs[c].Str[i] = short[pick[rng.Intn(len(pick))]]
				}
			}
		}
		if round%2 == 1 {
			mid := batches[len(batches)/2]
			mid.Vecs[4+rng.Intn(2)].Str[rng.Intn(mid.N)] = long[rng.Intn(len(long))]
		}
		for _, groups := range groupings {
			aggr := &HashAggr{Child: &manyBatches{batches: batches}, Groups: groups, Aggs: aggs}
			got := Collect(aggr)
			want := Collect(&refHashAggr{Child: &manyBatches{batches: batches}, Groups: groups, Aggs: aggs})
			if !sameBatch(got, want) {
				t.Fatalf("round %d groups %v: %d groups, reference %d; rows, order or sums differ", round, groups, got.N, want.N)
			}
			if used, want := aggr.direct != nil, !slices.Contains(groups, 0); used != want {
				t.Fatalf("round %d groups %v: direct table used %v, want %v", round, groups, used, want)
			}
		}
	}
}

// withCodes gives every String vector of b whose values are all exactly
// one byte the codes a scan would carry for it, and returns b.
func withCodes(b *Batch) *Batch {
	for _, v := range b.Vecs {
		if v.T != storage.String {
			continue
		}
		v.Code = make([]byte, len(v.Str))
		for i, s := range v.Str {
			if len(s) != 1 {
				v.Code = nil
				break
			}
			v.Code[i] = s[0]
		}
	}
	return b
}

// TestDifferentialHashAggrCoded: the direct table walked from codes
// gives, batch by batch, the group ids and the groups opened (in order)
// that the string walk gives over uncoded copies of the same batches, and
// the same answers. Each batch draws from a few one-byte values of its
// own, so later batches open groups an earlier coded walk missed; in
// every other round a middle batch carries "" or "AB", so it has no codes
// or cannot use the table, and the paths take turns on one aggregate.
// Every other batch is read through a selection.
func TestDifferentialHashAggrCoded(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	short := []string{"\x00", "\xff", "A", "N", "R", "|"}
	aggs := []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: 2}, {Kind: AggAvg, Col: 3}, {Kind: AggMin, Col: 0}}
	groupings := [][]int{{4}, {4, 5}, {5, 4}, {4, 5, 4}}
	walked := 0
	for round := 0; round < 16; round++ {
		batches := randBatches(rng, 3)
		for _, b := range batches {
			pick := rng.Perm(len(short))[:1+rng.Intn(3)]
			for _, c := range []int{4, 5} {
				for i := range b.Vecs[c].Str {
					b.Vecs[c].Str[i] = short[pick[rng.Intn(len(pick))]]
				}
			}
		}
		if round%2 == 1 {
			mid := batches[len(batches)/2]
			mid.Vecs[4+rng.Intn(2)].Str[rng.Intn(mid.N)] = []string{"", "AB"}[rng.Intn(2)]
		}
		for _, groups := range groupings {
			coded := &HashAggr{Child: &manyBatches{}, Groups: groups, Aggs: aggs}
			plain := &HashAggr{Child: &manyBatches{}, Groups: groups, Aggs: aggs}
			coded.Open()
			plain.Open()
			for k, b := range batches {
				var sel []int32
				if k%2 == 1 {
					for i := 0; i < b.N; i++ {
						if rng.Intn(3) > 0 {
							sel = append(sel, int32(i))
						}
					}
				}
				cb := withCodes(cloneBatch(b))
				if cb.Vecs[4].Code != nil && cb.Vecs[5].Code != nil {
					walked++
				}
				plain.add(b, sel)
				coded.add(cb, sel)
				if !slices.Equal(coded.gids, plain.gids) || !slices.Equal(coded.fresh, plain.fresh) || !slices.Equal(coded.rendered, plain.rendered) {
					t.Fatalf("round %d groups %v batch %d: group ids or first-sight order differ from the string walk", round, groups, k)
				}
			}
			if got, want := Collect(&nopClose{coded}), Collect(&nopClose{plain}); !sameBatch(got, want) {
				t.Fatalf("round %d groups %v: %d groups, string walk %d; rows, order or aggregates differ", round, groups, got.N, want.N)
			}
		}
	}
	if walked == 0 {
		t.Fatal("no batch carried codes in both group columns")
	}
}

// TestDifferentialSelectedAggr: HashAggr reading through the selection
// Select hands on via Project gives the answer of the reference engine,
// which gathers the survivors first — under every predicate, on the
// global, direct-table and map paths, and when a batch in the middle of
// the stream sends the direct table to the map under a selection. A
// Project whose integer division could fault on a tuple the filter
// dropped gathers first instead of panicking.
func TestDifferentialSelectedAggr(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	short := []string{"", "A", "F", "N", "O", "R"}
	exprs := func() []Expr {
		return []Expr{col(0), col(1), col(2), col(3), col(4), col(5),
			NewArith("*", col(2), col(3)), NewArith("+", col(0), col(1)), NewArith("/", col(0), ConstI(3))}
	}
	// Every kind over an int and a float column, computed and bare.
	aggs := []AggSpec{{Kind: AggCount}}
	for i, kind := range []AggKind{AggSum, AggMin, AggMax, AggAvg} {
		aggs = append(aggs, AggSpec{Kind: kind, Col: 7 + i%2}, AggSpec{Kind: kind, Col: []int{6, 2}[i%2]})
	}
	none, all := NewCmp("<", col(0), col(0)), NewCmp("==", col(4), col(4))
	for round := 0; round < 2; round++ {
		batches := randBatches(rng, []int{4, 40}[round])
		for _, b := range batches {
			for _, c := range []int{4, 5} {
				for i := range b.Vecs[c].Str {
					b.Vecs[c].Str[i] = short[rng.Intn(len(short))]
				}
			}
		}
		long := slices.Clone(batches)
		mid := cloneBatch(batches[len(batches)/2])
		for i := 0; i < mid.N; i += 1 + rng.Intn(8) {
			mid.Vecs[4].Str[i] = "AB"
		}
		long[len(batches)/2] = mid
		cases := []struct {
			groups  []int
			batches []*Batch
		}{{nil, batches}, {[]int{4, 5}, batches}, {[]int{0, 2, 4}, batches}, {[]int{4}, long}}
		preds, _ := kernelExprs(rng)
		for i, p := range append(preds, none, all) {
			for k, c := range cases {
				if i < len(preds) && (i+round)%len(cases) != k {
					continue // each of kernelExprs' predicates meets one grouping
				}
				aggr := &HashAggr{Child: &Project{Child: &Select{Child: &manyBatches{batches: c.batches}, Pred: p}, Exprs: exprs()}, Groups: c.groups, Aggs: aggs}
				got := Collect(aggr)
				want := Collect(&refHashAggr{Child: &Project{Child: &refSelect{Child: &manyBatches{batches: c.batches}, Pred: p}, Exprs: exprs()}, Groups: c.groups, Aggs: aggs})
				if !sameBatch(got, want) {
					t.Fatalf("round %d pred %d (%T %+v) groups %v: %d groups, reference %d; rows, order or aggregates differ", round, i, p, p, c.groups, got.N, want.N)
				}
			}
		}
	}

	// Column 1 is 0 exactly where the filter drops the tuple: col 0 / col 1
	// over the whole vector would divide by zero.
	b := randBatch(rng, VectorSize, 40)
	for i := range b.Vecs[1].I64 {
		if i%3 == 0 {
			b.Vecs[1].I64[i] = 0
		}
	}
	div := NewArith("/", col(0), col(1))
	sel := &Select{Child: &manyBatches{batches: []*Batch{b}}, Pred: NewCmp("!=", col(1), ConstI(0))}
	got := Collect(&HashAggr{Child: &Project{Child: sel, Exprs: []Expr{div}}, Aggs: []AggSpec{{Kind: AggSum, Col: 0}}})
	want := Collect(&refHashAggr{Child: &Project{Child: &refSelect{Child: &manyBatches{batches: []*Batch{b}}, Pred: sel.Pred}, Exprs: []Expr{div}},
		Aggs: []AggSpec{{Kind: AggSum, Col: 0}}})
	if !sameBatch(got, want) {
		t.Fatal("a Project that divides by a column: aggregate differs from the reference")
	}
}

// TestDifferentialFusedAggr: HashAggr's float sums — every Sum and Avg
// of a Float64 column in one row per group, a Sum and an Avg of the same
// column in one slot, added four slots to a pass with the count in the
// last — equal the reference's to the bit, at every width from no float
// sum to seven, beside the aggregates that keep loops of their own (Min,
// Max, an Int64 Sum and Avg). The input runs dense and through a filter's
// selection, on the global, direct-table and map paths. Column 3 holds
// values whose sums round, so a sum built out of input order differs;
// column 2 carries NaN, ±Inf and -0.
func TestDifferentialFusedAggr(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	// The projection: group candidates first, then seven float columns.
	exprs := func() []Expr {
		return []Expr{col(4), col(5), col(0), col(1),
			col(3), col(2), NewArith("*", col(3), ConstF(1.1)), NewArith("+", col(2), col(3)),
			NewArith("-", col(3), col(2)), NewArith("*", col(3), col(3)), NewArith("/", col(3), ConstF(3))}
	}
	const floats = 4
	short := []string{"", "A", "F", "N", "O", "R"}
	for round := 0; round < 2; round++ {
		batches := randBatches(rng, []int{4, 40}[round])
		for _, b := range batches {
			for i := range b.Vecs[3].F64 {
				b.Vecs[3].F64[i] = rng.NormFloat64() * 1e3
			}
			for _, c := range []int{4, 5} {
				for i := range b.Vecs[c].Str {
					b.Vecs[c].Str[i] = short[rng.Intn(len(short))]
				}
			}
		}
		for w := 0; w <= 7; w++ {
			aggs := []AggSpec{{Kind: AggCount}, {Kind: AggMin, Col: floats}, {Kind: AggMax, Col: floats + 1},
				{Kind: AggSum, Col: 2}, {Kind: AggAvg, Col: 3}}
			for k := 0; k < w; k++ {
				aggs = append(aggs, AggSpec{Kind: AggSum, Col: floats + k}, AggSpec{Kind: AggAvg, Col: floats + k})
			}
			pred := NewCmp("<", col(3), ConstF(rng.NormFloat64()*1e3))
			for _, groups := range [][]int{nil, {0, 1}, {0, 2}} {
				inputs := []struct {
					name      string
					got, want Op
				}{
					{"dense", &Project{Child: &manyBatches{batches: batches}, Exprs: exprs()},
						&Project{Child: &manyBatches{batches: batches}, Exprs: exprs()}},
					{"selected", &Project{Child: &Select{Child: &manyBatches{batches: batches}, Pred: pred}, Exprs: exprs()},
						&Project{Child: &refSelect{Child: &manyBatches{batches: batches}, Pred: pred}, Exprs: exprs()}},
				}
				for _, in := range inputs {
					aggr := &HashAggr{Child: in.got, Groups: groups, Aggs: aggs}
					got := Collect(aggr)
					want := Collect(&refHashAggr{Child: in.want, Groups: groups, Aggs: aggs})
					if !sameBatch(got, want) {
						t.Fatalf("round %d, %d float sums, %s, groups %v: %d groups, reference %d; rows, order or aggregates differ",
							round, w, in.name, groups, got.N, want.N)
					}
					if len(aggr.summed) != w {
						t.Fatalf("%d float columns summed in %d slots", w, len(aggr.summed))
					}
					if used, want := aggr.direct != nil, slices.Equal(groups, []int{0, 1}); used != want {
						t.Fatalf("groups %v: direct table used %v, want %v", groups, used, want)
					}
				}
			}
		}
	}
}

// q1Shaped sets columns 4 and 5 of b to Q1's group values, l_returnflag
// and l_linestatus (3 × 2 one-byte strings), each repeated rep times.
func q1Shaped(b *Batch, rep int) *Batch {
	for i := range b.Vecs[4].Str {
		b.Vecs[4].Str[i] = strings.Repeat("ANR"[i%3:i%3+1], rep)
		b.Vecs[5].Str[i] = strings.Repeat("FO"[i%2:i%2+1], rep)
	}
	return b
}

// q1Aggs is Q1's aggregate shape over kernelTypes: a count, sums and
// averages of floats.
var q1Aggs = []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: 2}, {Kind: AggSum, Col: 3}, {Kind: AggAvg, Col: 2}, {Kind: AggAvg, Col: 3}}

// TestAllocsSteadyStateVector: once an operator has seen a vector of the
// size it will see again, the next one allocates nothing.
func TestAllocsSteadyStateVector(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := randBatch(rng, VectorSize, 40)
	src := &batchSource{types: kernelTypes, b: b, times: 1 << 30}
	disc := NewArith("-", ConstF(1), col(2))
	ops := map[string]Op{
		"Select": &Select{Child: src, Pred: NewAnd(
			Between(col(0), -10, 10), NewCmp(">=", col(2), ConstF(0)), oddExpr{col: 1}, NewCmp("<", col(4), col(5)))},
		"Project": &Project{Child: src, Exprs: []Expr{
			col(4), col(2), NewArith("*", col(3), disc), NewArith("*", NewArith("*", col(3), disc), NewArith("+", ConstF(1), col(2))),
			NewCmp("<=", col(0), ConstI(3))}},
	}
	for name, op := range ops {
		op.Open()
		op.Next()
		if n := testing.AllocsPerRun(50, func() { op.Next() }); n != 0 {
			t.Errorf("%s: %.0f allocations per steady-state vector, want 0", name, n)
		}
		op.Close()
	}

	// The map path, and Q1's shape through the direct table.
	aggrs := []struct {
		name string
		aggr *HashAggr
		in   *Batch
	}{
		{"HashAggr", &HashAggr{Child: src, Groups: []int{0, 2, 4}, Aggs: []AggSpec{
			{Kind: AggCount}, {Kind: AggSum, Col: 3}, {Kind: AggAvg, Col: 1}, {Kind: AggMin, Col: 2}, {Kind: AggMax, Col: 0}}}, b},
		{"HashAggr/direct", &HashAggr{Child: src, Groups: []int{4, 5}, Aggs: q1Aggs}, q1Shaped(cloneBatch(b), 1)},
	}
	for _, c := range aggrs {
		c.aggr.Open()
		c.aggr.add(c.in, nil)
		if n := testing.AllocsPerRun(50, func() { c.aggr.add(c.in, nil) }); n != 0 {
			t.Errorf("%s: %.0f allocations for a vector that opens no group, want 0", c.name, n)
		}
	}

	// Q1's chain with a filter that drops part of every vector: HashAggr
	// reads through the selection Select hands on via Project.
	proj := &Project{
		Child: &Select{Child: &batchSource{types: kernelTypes, b: q1Shaped(cloneBatch(b), 1), times: 1 << 30}, Pred: NewCmp("<=", col(0), ConstI(15))},
		Exprs: []Expr{col(4), col(5), col(2), NewArith("*", col(3), NewArith("-", ConstF(1), col(2)))},
	}
	chain := &HashAggr{Child: proj, Groups: []int{0, 1}, Aggs: []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: 2}, {Kind: AggAvg, Col: 3}}}
	chain.Open()
	if _, sel := proj.nextSel(); len(sel) == 0 || len(sel) == VectorSize {
		t.Fatalf("Select/Project/HashAggr: %d of %d tuples selected, want some", len(sel), VectorSize)
	}
	chain.add(proj.nextSel())
	if n := testing.AllocsPerRun(50, func() { chain.add(proj.nextSel()) }); n != 0 {
		t.Errorf("Select/Project/HashAggr: %.0f allocations per steady-state vector, want 0", n)
	}

	// A Scan over resident 2048-tuple pages from SID 512: its vectors
	// alternate between aliasing a page and straddling two.
	e := newEnv(t, 60000, false)
	e.run(func() {
		Drain(&Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0, 1, 2}, Ranges: []RIDRange{{0, 60000}}})
		s := &Scan{Ctx: e.ctx, Snap: e.snap, Cols: []int{0, 1, 2}, Ranges: []RIDRange{{512, 60000}}}
		s.Open()
		defer s.Close()
		s.Next()
		var aliased int
		if n := testing.AllocsPerRun(50, func() {
			if s.Next(); s.merge.own[0].alias {
				aliased++
			}
		}); n != 0 {
			t.Errorf("Scan: %.0f allocations per steady-state vector, want 0", n)
		}
		if aliased != 25 {
			t.Errorf("Scan: %d of 51 vectors aliased a page, want 25", aliased)
		}
	})
}

// TestAllocsScanBuffersOnFirstCopy: a scan makes a column's own buffer
// the first time the column copies, and keeps it. Over resident pages
// from SID 0, where every vector of every column is a page's memory, a
// Scan makes none across Open, the drain and Close. From SID 512 the id
// and val vectors straddle their 2048-tuple pages every other batch and
// tag's its 16384-tuple pages a few times: each column's buffer is made
// once, not once per batch.
func TestAllocsScanBuffersOnFirstCopy(t *testing.T) {
	// data is v's backing array; a column's own buffer has none until made.
	data := func(v *Vec) unsafe.Pointer {
		switch v.T {
		case storage.Int64:
			return unsafe.Pointer(unsafe.SliceData(v.I64))
		case storage.Float64:
			return unsafe.Pointer(unsafe.SliceData(v.F64))
		default:
			return unsafe.Pointer(unsafe.SliceData(v.Str))
		}
	}
	cols := []int{0, 1, 2}
	e := newEnv(t, 60000, false)
	e.run(func() {
		Drain(&Scan{Ctx: e.ctx, Snap: e.snap, Cols: cols, Ranges: []RIDRange{{0, 60000}}})

		s := &Scan{Ctx: e.ctx, Snap: e.snap, Cols: cols, Ranges: []RIDRange{{0, 60000}}}
		made := func() bool {
			return slices.ContainsFunc(s.merge.own, func(o colBuf) bool { return data(&o.buf) != nil })
		}
		s.Open()
		if made() {
			t.Error("aliasing Scan: a column buffer made at Open")
		}
		for b := s.Next(); b != nil; b = s.Next() {
			if made() {
				t.Fatal("aliasing Scan: a column buffer made by a vector that lies inside one page")
			}
		}
		s.Close()
		if made() {
			t.Error("aliasing Scan: a column buffer made at Close")
		}

		s = &Scan{Ctx: e.ctx, Snap: e.snap, Cols: cols, Ranges: []RIDRange{{512, 60000}}}
		seen := make([]map[unsafe.Pointer]bool, len(cols))
		for i := range seen {
			seen[i] = map[unsafe.Pointer]bool{}
		}
		s.Open()
		batches := 0
		for b := s.Next(); b != nil; b = s.Next() {
			batches++
			for i, v := range b.Vecs {
				if !s.merge.own[i].alias {
					seen[i][data(v)] = true
				}
			}
		}
		s.Close()
		for i := range cols {
			if len(seen[i]) != 1 {
				t.Errorf("straddling Scan: column %d copied into %d buffers over %d batches, want 1", i, len(seen[i]), batches)
			}
		}
	})
}

// TestAllocsCopyBatch: the copy an exchange queues is sized to the batch
// — a partial aggregate of four rows costs four rows — at one allocation
// per column plus the batch's own three.
func TestAllocsCopyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{4, 700, VectorSize} {
		b := randBatch(rng, n, 40)
		for _, v := range b.Vecs {
			v.reserve(VectorSize)
		}
		cp := copyBatch(kernelTypes, b)
		if !sameBatch(cp, b) {
			t.Fatalf("n=%d: copy differs", n)
		}
		for c, v := range cp.Vecs {
			if got := cap(v.I64) + cap(v.F64) + cap(v.Str); got != n {
				t.Errorf("n=%d column %d: capacity %d, want %d", n, c, got, n)
			}
		}
		if got, max := testing.AllocsPerRun(50, func() { copyBatch(kernelTypes, b) }), float64(len(kernelTypes)+3); got > max {
			t.Errorf("n=%d: %.0f allocations, want at most %.0f", n, got, max)
		}
	}
}
