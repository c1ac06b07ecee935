package exec

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/storage"
)

// Select filters its child by a boolean (0/1 int64) predicate.
type Select struct {
	Child Op
	Pred  Expr
	Ctx   *Ctx
	// PerTupleCPU, if nonzero, is charged per input tuple.
	PerTupleCPU sim.Duration

	out    *Batch
	pred   Vec
	closed bool
}

// Op is an alias to keep plan literals compact.
type Op = Operator

// Schema implements Operator.
func (s *Select) Schema() []storage.ColumnType { return s.Child.Schema() }

// Open implements Operator.
func (s *Select) Open() {
	s.Child.Open()
	s.out = NewBatch(s.Child.Schema())
}

// Next implements Operator.
func (s *Select) Next() *Batch {
	for {
		in := s.Child.Next()
		if in == nil {
			return nil
		}
		if s.Ctx != nil && s.PerTupleCPU > 0 {
			s.Ctx.work(nil, s.PerTupleCPU*sim.Duration(in.N))
		}
		s.Pred.Eval(in, &s.pred)
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

// Close implements Operator. Idempotent: a second Close does not reach
// the child.
func (s *Select) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.Child.Close()
}

// Project computes expressions over its child.
type Project struct {
	Child Op
	Exprs []Expr

	out    *Batch
	closed bool
}

// Schema implements Operator.
func (p *Project) Schema() []storage.ColumnType {
	out := make([]storage.ColumnType, len(p.Exprs))
	for i, e := range p.Exprs {
		out[i] = e.Type()
	}
	return out
}

// Open implements Operator.
func (p *Project) Open() {
	p.Child.Open()
	p.out = NewBatch(p.Schema())
}

// Next implements Operator.
func (p *Project) Next() *Batch {
	in := p.Child.Next()
	if in == nil {
		return nil
	}
	for i, e := range p.Exprs {
		e.Eval(in, p.out.Vecs[i])
	}
	p.out.N = in.N
	return p.out
}

// Close implements Operator. Idempotent: a second Close does not reach
// the child.
func (p *Project) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.Child.Close()
}

// AggKind enumerates aggregate functions.
type AggKind int

// Aggregate kinds.
const (
	AggSum AggKind = iota
	AggCount
	AggMin
	AggMax
	AggAvg
)

// AggSpec is one aggregate over an input column (ignored for AggCount).
type AggSpec struct {
	Kind AggKind
	Col  int
}

// aggState accumulates one group.
type aggState struct {
	sums   []float64
	isums  []int64
	mins   []float64
	imins  []int64
	maxs   []float64
	imaxs  []int64
	counts []int64
	n      int64
	key    []string // rendered group key values for deterministic order
	keyI   []int64
	keyF   []float64
	keyS   []string
}

// HashAggr is a blocking hash aggregation with optional group-by columns.
type HashAggr struct {
	Child  Op
	Groups []int
	Aggs   []AggSpec
	Ctx    *Ctx
	// PerTupleCPU, if nonzero, is charged per input tuple.
	PerTupleCPU sim.Duration

	groups  map[string]*aggState
	order   []*aggState
	emitted bool
	out     *Batch
	closed  bool
}

// Schema implements Operator: group columns followed by aggregates
// (AggCount yields Int64; others Float64 except Min/Max/Sum over Int64).
func (a *HashAggr) Schema() []storage.ColumnType {
	child := a.Child.Schema()
	var out []storage.ColumnType
	for _, g := range a.Groups {
		out = append(out, child[g])
	}
	for _, spec := range a.Aggs {
		switch spec.Kind {
		case AggCount:
			out = append(out, storage.Int64)
		case AggAvg:
			out = append(out, storage.Float64)
		default:
			out = append(out, child[spec.Col])
		}
	}
	return out
}

// Open implements Operator.
func (a *HashAggr) Open() {
	a.Child.Open()
	a.groups = make(map[string]*aggState)
	a.out = NewBatch(a.Schema())
}

// Next implements Operator: consumes the whole child on first call, then
// emits result batches in deterministic (sorted group key) order.
func (a *HashAggr) Next() *Batch {
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

func (a *HashAggr) consume() {
	child := a.Child.Schema()
	var kb []byte // the tuple's grouping key, rebuilt in place per tuple
	for in := a.Child.Next(); in != nil; in = a.Child.Next() {
		if a.Ctx != nil && a.PerTupleCPU > 0 {
			a.Ctx.work(nil, a.PerTupleCPU*sim.Duration(in.N))
		}
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
			// A map index by string(kb) does not allocate; the key string
			// is only materialised for a group seen for the first time.
			st, ok := a.groups[string(kb)]
			if !ok {
				key := string(kb)
				st = &aggState{
					sums:   make([]float64, len(a.Aggs)),
					isums:  make([]int64, len(a.Aggs)),
					mins:   make([]float64, len(a.Aggs)),
					imins:  make([]int64, len(a.Aggs)),
					maxs:   make([]float64, len(a.Aggs)),
					imaxs:  make([]int64, len(a.Aggs)),
					counts: make([]int64, len(a.Aggs)),
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
				st.key = []string{key}
				a.groups[key] = st
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
	sort.Slice(a.order, func(i, j int) bool { return a.order[i].key[0] < a.order[j].key[0] })
}

// Close implements Operator. Idempotent: a second Close does not reach
// the child.
func (a *HashAggr) Close() {
	if a.closed {
		return
	}
	a.closed = true
	a.Child.Close()
}

// HashJoin is an equi-join: it builds a hash table from the Build child
// on BuildKey and probes with the Probe child on ProbeKey (int64 keys,
// the common case for TPC-H foreign keys). Output is probe columns
// followed by build columns.
type HashJoin struct {
	Build    Op
	Probe    Op
	BuildKey int
	ProbeKey int
	Ctx      *Ctx
	// PerTupleCPU, if nonzero, is charged per probe tuple.
	PerTupleCPU sim.Duration

	table  map[int64][]int // key -> row indexes in built
	built  *Batch
	out    *Batch
	closed bool
}

// Schema implements Operator.
func (j *HashJoin) Schema() []storage.ColumnType {
	return append(append([]storage.ColumnType{}, j.Probe.Schema()...), j.Build.Schema()...)
}

// Open implements Operator: materializes and hashes the build side.
func (j *HashJoin) Open() {
	j.Probe.Open()
	j.built = Collect(j.Build)
	j.table = make(map[int64][]int)
	keys := j.built.Vecs[j.BuildKey]
	typeCheck(storage.Int64, keys.T, "join build key")
	for i := 0; i < j.built.N; i++ {
		k := keys.I64[i]
		j.table[k] = append(j.table[k], i)
	}
	j.out = NewBatch(j.Schema())
}

// Next implements Operator.
func (j *HashJoin) Next() *Batch {
	for {
		in := j.Probe.Next()
		if in == nil {
			return nil
		}
		if j.Ctx != nil && j.PerTupleCPU > 0 {
			j.Ctx.work(nil, j.PerTupleCPU*sim.Duration(in.N))
		}
		keys := in.Vecs[j.ProbeKey]
		typeCheck(storage.Int64, keys.T, "join probe key")
		j.out.Reset()
		np := len(in.Vecs)
		for i := 0; i < in.N; i++ {
			for _, bi := range j.table[keys.I64[i]] {
				for c := range in.Vecs {
					j.out.Vecs[c].AppendFrom(in.Vecs[c], i)
				}
				for c := range j.built.Vecs {
					j.out.Vecs[np+c].AppendFrom(j.built.Vecs[c], bi)
				}
				j.out.N++
			}
		}
		if j.out.N > 0 {
			return j.out
		}
	}
}

// Close implements Operator (the build side was already closed by
// Collect in Open). Idempotent: a second Close does not reach the probe
// child.
func (j *HashJoin) Close() {
	if j.closed {
		return
	}
	j.closed = true
	j.Probe.Close()
}

// SortSpec orders by column Col, descending when Desc.
type SortSpec struct {
	Col  int
	Desc bool
}

// Sort is a blocking full sort (used on small final results, as TPC-H
// ORDER BY clauses are).
type Sort struct {
	Child Op
	By    []SortSpec
	// Limit truncates the output when positive (ORDER BY ... LIMIT n).
	Limit int

	all    *Batch
	perm   []int
	pos    int
	opened bool
	sorted bool
	closed bool
	out    *Batch
}

// Schema implements Operator.
func (s *Sort) Schema() []storage.ColumnType { return s.Child.Schema() }

// Open implements Operator.
func (s *Sort) Open() {
	s.Child.Open()
	s.opened = true
	s.out = NewBatch(s.Child.Schema())
}

// Next implements Operator.
func (s *Sort) Next() *Batch {
	if !s.sorted {
		s.all = Collect(&nopClose{s.Child})
		s.perm = make([]int, s.all.N)
		for i := range s.perm {
			s.perm[i] = i
		}
		sort.SliceStable(s.perm, func(a, b int) bool {
			ra, rb := s.perm[a], s.perm[b]
			for _, spec := range s.By {
				v := s.all.Vecs[spec.Col]
				var cm int
				switch v.T {
				case storage.Int64:
					cm = cmpOrdered(v.I64[ra], v.I64[rb])
				case storage.Float64:
					cm = cmpOrdered(v.F64[ra], v.F64[rb])
				case storage.String:
					cm = strings.Compare(v.Str[ra], v.Str[rb])
				}
				if cm != 0 {
					if spec.Desc {
						return cm > 0
					}
					return cm < 0
				}
			}
			return false
		})
		if s.Limit > 0 && len(s.perm) > s.Limit {
			s.perm = s.perm[:s.Limit]
		}
		s.sorted = true
	}
	if s.pos >= len(s.perm) {
		return nil
	}
	s.out.Reset()
	for s.pos < len(s.perm) && s.out.N < VectorSize {
		ri := s.perm[s.pos]
		for c := range s.out.Vecs {
			s.out.Vecs[c].AppendFrom(s.all.Vecs[c], ri)
		}
		s.out.N++
		s.pos++
	}
	return s.out
}

// Close implements Operator. Idempotent: a second Close does not reach
// the child.
func (s *Sort) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.Child.Close()
}

// nopClose adapts an already-open child for Collect (which opens/closes).
type nopClose struct{ Op }

func (n *nopClose) Open()  {}
func (n *nopClose) Close() {}
