package exec

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// This file is the per-value engine the vector primitives replaced, kept
// verbatim as the oracle of the differential tests: every value goes
// through a type switch and an operator switch of its own, survivors move
// one value and one column at a time, and every tuple's group key is
// rendered through strconv. Slow and obviously right.

// AppendFrom copies value i of src onto the end of v.
func (v *Vec) AppendFrom(src *Vec, i int) {
	switch v.T {
	case storage.Int64:
		v.I64 = append(v.I64, src.I64[i])
	case storage.Float64:
		v.F64 = append(v.F64, src.F64[i])
	case storage.String:
		v.Str = append(v.Str, src.Str[i])
	}
}

// refEval evaluates e the per-value way: the nodes the primitives
// rewrote (Cmp, Arith, And, Or and the constants) by their historical
// bodies, recursively; anything else by its own Eval.
func refEval(e Expr, b *Batch, out *Vec) {
	switch e := e.(type) {
	case ConstI:
		out.Reset()
		out.T = storage.Int64
		for i := 0; i < b.N; i++ {
			out.I64 = append(out.I64, int64(e))
		}
	case ConstF:
		out.Reset()
		out.T = storage.Float64
		for i := 0; i < b.N; i++ {
			out.F64 = append(out.F64, float64(e))
		}
	case *Arith:
		var l, r Vec
		refEval(e.L, b, &l)
		refEval(e.R, b, &r)
		out.Reset()
		out.T = e.Type()
		switch e.Type() {
		case storage.Int64:
			for i := range l.I64 {
				var v int64
				switch e.Op {
				case "+":
					v = l.I64[i] + r.I64[i]
				case "-":
					v = l.I64[i] - r.I64[i]
				case "*":
					v = l.I64[i] * r.I64[i]
				case "/":
					v = l.I64[i] / r.I64[i]
				default:
					panic("exec: bad arith op " + e.Op)
				}
				out.I64 = append(out.I64, v)
			}
		case storage.Float64:
			for i := range l.F64 {
				var v float64
				switch e.Op {
				case "+":
					v = l.F64[i] + r.F64[i]
				case "-":
					v = l.F64[i] - r.F64[i]
				case "*":
					v = l.F64[i] * r.F64[i]
				case "/":
					v = l.F64[i] / r.F64[i]
				default:
					panic("exec: bad arith op " + e.Op)
				}
				out.F64 = append(out.F64, v)
			}
		}
	case *Cmp:
		var l, r Vec
		refEval(e.L, b, &l)
		refEval(e.R, b, &r)
		out.Reset()
		out.T = storage.Int64
		n := l.Len()
		for i := 0; i < n; i++ {
			var cm int
			switch l.T {
			case storage.Int64:
				cm = cmpOrdered(l.I64[i], r.I64[i])
			case storage.Float64:
				cm = cmpOrdered(l.F64[i], r.F64[i])
			case storage.String:
				cm = strings.Compare(l.Str[i], r.Str[i])
			}
			ok := false
			switch e.Op {
			case "<":
				ok = cm < 0
			case "<=":
				ok = cm <= 0
			case "==":
				ok = cm == 0
			case "!=":
				ok = cm != 0
			case ">=":
				ok = cm >= 0
			case ">":
				ok = cm > 0
			default:
				panic("exec: bad cmp op " + e.Op)
			}
			if ok {
				out.I64 = append(out.I64, 1)
			} else {
				out.I64 = append(out.I64, 0)
			}
		}
	case *And:
		out.Reset()
		out.T = storage.Int64
		for i := 0; i < b.N; i++ {
			out.I64 = append(out.I64, 1)
		}
		var tmp Vec
		for _, k := range e.Kids {
			refEval(k, b, &tmp)
			for i := range out.I64 {
				if tmp.I64[i] == 0 {
					out.I64[i] = 0
				}
			}
		}
	case *Or:
		out.Reset()
		out.T = storage.Int64
		for i := 0; i < b.N; i++ {
			out.I64 = append(out.I64, 0)
		}
		var tmp Vec
		for _, k := range e.Kids {
			refEval(k, b, &tmp)
			for i := range out.I64 {
				if tmp.I64[i] != 0 {
					out.I64[i] = 1
				}
			}
		}
	default:
		e.Eval(b, out)
	}
}

// refSelect is the historical Select: a 0/1 predicate vector, then one
// AppendFrom per surviving value.
type refSelect struct {
	Child Op
	Pred  Expr

	out  *Batch
	pred Vec
}

func (s *refSelect) Schema() []storage.ColumnType { return s.Child.Schema() }

func (s *refSelect) Open() {
	s.Child.Open()
	s.out = NewBatch(s.Child.Schema())
}

func (s *refSelect) Next() *Batch {
	for {
		in := s.Child.Next()
		if in == nil {
			return nil
		}
		refEval(s.Pred, in, &s.pred)
		s.out.Reset()
		for i := 0; i < in.N; i++ {
			if s.pred.I64[i] == 0 {
				continue
			}
			for c := range s.out.Vecs {
				s.out.Vecs[c].AppendFrom(in.Vecs[c], i)
			}
			s.out.N++
		}
		if s.out.N > 0 {
			return s.out
		}
	}
}

func (s *refSelect) Close() { s.Child.Close() }

// refPredicateScan is the mechanism a scan's own predicate replaced:
// the scan without it, which prunes and filters nothing, under a
// Select{Between} on the predicate's column — the exact filter plans
// stacked on a pruning scan by hand.
func refPredicateScan(scan Op, cols []int, pred *ScanPredicate) Op {
	at := Col{Idx: slices.Index(cols, pred.Col), T: storage.Int64}
	return &Select{Child: scan, Pred: Between(at, pred.Lo, pred.Hi)}
}

// refAggState accumulates one group of refHashAggr.
type refAggState struct {
	sums   []float64
	isums  []int64
	mins   []float64
	imins  []int64
	maxs   []float64
	imaxs  []int64
	counts []int64
	n      int64
	key    string // rendered group key: fixes the output order
	keyI   []int64
	keyF   []float64
	keyS   []string
}

// refHashAggr is the historical HashAggr: a rendered key and a string-map
// lookup per tuple, a state object per group.
type refHashAggr struct {
	Child  Op
	Groups []int
	Aggs   []AggSpec

	groups  map[string]*refAggState
	order   []*refAggState
	emitted bool
	out     *Batch
}

func (a *refHashAggr) Schema() []storage.ColumnType {
	return (&HashAggr{Child: a.Child, Groups: a.Groups, Aggs: a.Aggs}).Schema()
}

func (a *refHashAggr) Open() {
	a.Child.Open()
	a.groups = make(map[string]*refAggState)
	a.out = NewBatch(a.Schema())
}

func (a *refHashAggr) Next() *Batch {
	if !a.emitted {
		a.consume()
		a.emitted = true
	}
	if len(a.order) == 0 {
		return nil
	}
	a.out.Reset()
	child := a.Child.Schema()
	n := len(a.order)
	if n > VectorSize {
		n = VectorSize
	}
	for _, st := range a.order[:n] {
		col := 0
		for gi, g := range a.Groups {
			switch child[g] {
			case storage.Int64:
				a.out.Vecs[col].I64 = append(a.out.Vecs[col].I64, st.keyI[gi])
			case storage.Float64:
				a.out.Vecs[col].F64 = append(a.out.Vecs[col].F64, st.keyF[gi])
			case storage.String:
				a.out.Vecs[col].Str = append(a.out.Vecs[col].Str, st.keyS[gi])
			}
			col++
		}
		for si, spec := range a.Aggs {
			v := a.out.Vecs[col]
			switch spec.Kind {
			case AggCount:
				v.I64 = append(v.I64, st.n)
			case AggAvg:
				v.F64 = append(v.F64, st.sums[si]/float64(st.n))
			case AggSum:
				if v.T == storage.Int64 {
					v.I64 = append(v.I64, st.isums[si])
				} else {
					v.F64 = append(v.F64, st.sums[si])
				}
			case AggMin:
				if v.T == storage.Int64 {
					v.I64 = append(v.I64, st.imins[si])
				} else {
					v.F64 = append(v.F64, st.mins[si])
				}
			case AggMax:
				if v.T == storage.Int64 {
					v.I64 = append(v.I64, st.imaxs[si])
				} else {
					v.F64 = append(v.F64, st.maxs[si])
				}
			}
			col++
		}
		a.out.N++
	}
	a.order = a.order[n:]
	return a.out
}

func (a *refHashAggr) consume() {
	child := a.Child.Schema()
	var kb []byte
	for in := a.Child.Next(); in != nil; in = a.Child.Next() {
		for i := 0; i < in.N; i++ {
			kb = kb[:0]
			for _, g := range a.Groups {
				switch child[g] {
				case storage.Int64:
					kb = strconv.AppendInt(kb, in.Vecs[g].I64[i], 10)
				case storage.Float64:
					kb = strconv.AppendFloat(kb, in.Vecs[g].F64[i], 'g', -1, 64)
				case storage.String:
					kb = append(kb, in.Vecs[g].Str[i]...)
				}
				kb = append(kb, '|')
			}
			st, ok := a.groups[string(kb)]
			if !ok {
				st = &refAggState{
					sums:   make([]float64, len(a.Aggs)),
					isums:  make([]int64, len(a.Aggs)),
					mins:   make([]float64, len(a.Aggs)),
					imins:  make([]int64, len(a.Aggs)),
					maxs:   make([]float64, len(a.Aggs)),
					imaxs:  make([]int64, len(a.Aggs)),
					counts: make([]int64, len(a.Aggs)),
					key:    string(kb),
				}
				for _, g := range a.Groups {
					switch child[g] {
					case storage.Int64:
						st.keyI = append(st.keyI, in.Vecs[g].I64[i])
						st.keyF = append(st.keyF, 0)
						st.keyS = append(st.keyS, "")
					case storage.Float64:
						st.keyI = append(st.keyI, 0)
						st.keyF = append(st.keyF, in.Vecs[g].F64[i])
						st.keyS = append(st.keyS, "")
					case storage.String:
						st.keyI = append(st.keyI, 0)
						st.keyF = append(st.keyF, 0)
						st.keyS = append(st.keyS, in.Vecs[g].Str[i])
					}
				}
				a.groups[st.key] = st
				a.order = append(a.order, st)
			}
			st.n++
			for si, spec := range a.Aggs {
				if spec.Kind == AggCount {
					continue
				}
				switch child[spec.Col] {
				case storage.Int64:
					v := in.Vecs[spec.Col].I64[i]
					st.isums[si] += v
					st.sums[si] += float64(v)
					if st.counts[si] == 0 || v < st.imins[si] {
						st.imins[si] = v
					}
					if st.counts[si] == 0 || v > st.imaxs[si] {
						st.imaxs[si] = v
					}
				case storage.Float64:
					v := in.Vecs[spec.Col].F64[i]
					st.sums[si] += v
					if st.counts[si] == 0 || v < st.mins[si] {
						st.mins[si] = v
					}
					if st.counts[si] == 0 || v > st.maxs[si] {
						st.maxs[si] = v
					}
				}
				st.counts[si]++
			}
		}
	}
	sort.Slice(a.order, func(i, j int) bool { return a.order[i].key < a.order[j].key })
}

func (a *refHashAggr) Close() { a.Child.Close() }

// The five per-tuple predicates Where replaced, kept verbatim (renamed)
// as the oracle of TestDifferentialWhere.

// refStrEq tests string column equality against a constant.
type refStrEq struct {
	Col int
	Val string
}

func (refStrEq) Type() storage.ColumnType { return storage.Int64 }

func (s refStrEq) Eval(b *Batch, out *Vec) {
	out.Reset()
	out.T = storage.Int64
	for _, v := range b.Vecs[s.Col].Str {
		if v == s.Val {
			out.I64 = append(out.I64, 1)
		} else {
			out.I64 = append(out.I64, 0)
		}
	}
}

// refStrPrefix tests whether a string column starts with a constant prefix.
type refStrPrefix struct {
	Col    int
	Prefix string
}

func (refStrPrefix) Type() storage.ColumnType { return storage.Int64 }

func (s refStrPrefix) Eval(b *Batch, out *Vec) {
	out.Reset()
	out.T = storage.Int64
	for _, v := range b.Vecs[s.Col].Str {
		if strings.HasPrefix(v, s.Prefix) {
			out.I64 = append(out.I64, 1)
		} else {
			out.I64 = append(out.I64, 0)
		}
	}
}

// refStrContains tests substring containment.
type refStrContains struct {
	Col int
	Sub string
}

func (refStrContains) Type() storage.ColumnType { return storage.Int64 }

func (s refStrContains) Eval(b *Batch, out *Vec) {
	out.Reset()
	out.T = storage.Int64
	for _, v := range b.Vecs[s.Col].Str {
		if strings.Contains(v, s.Sub) {
			out.I64 = append(out.I64, 1)
		} else {
			out.I64 = append(out.I64, 0)
		}
	}
}

// refInI64 tests membership of an int64 expression in a constant set.
type refInI64 struct {
	Expr Expr
	Set  map[int64]bool
	tmp  Vec
}

func (*refInI64) Type() storage.ColumnType { return storage.Int64 }

func (s *refInI64) Eval(b *Batch, out *Vec) {
	vals := operand(s.Expr, b, &s.tmp).I64
	out.Reset()
	out.T = storage.Int64
	for _, v := range vals {
		if s.Set[v] {
			out.I64 = append(out.I64, 1)
		} else {
			out.I64 = append(out.I64, 0)
		}
	}
}

// refInStr tests membership of a string column in a constant set.
type refInStr struct {
	Col int
	Set map[string]bool
}

func (refInStr) Type() storage.ColumnType { return storage.Int64 }

func (s refInStr) Eval(b *Batch, out *Vec) {
	out.Reset()
	out.T = storage.Int64
	for _, v := range b.Vecs[s.Col].Str {
		if s.Set[v] {
			out.I64 = append(out.I64, 1)
		} else {
			out.I64 = append(out.I64, 0)
		}
	}
}
