package exec

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/storage"
)

// Expr is a vectorized expression over an input batch. Boolean results
// are Int64 vectors of 0/1.
type Expr interface {
	Type() storage.ColumnType
	// Eval computes the expression over b into out (reset by the callee).
	// b is read-only, and out gets storage of its own: an Eval must never
	// point out at one of b's vectors, because the next Eval through the
	// same out (scratch vectors are reused) would overwrite the child's
	// batch.
	Eval(b *Batch, out *Vec)
}

// A narrower is a predicate that can apply itself to a selection vector:
// instead of a 0/1 value for every tuple of the batch it looks only at
// the positions still selected and keeps those that qualify. Cmp, And
// and Where narrow; a Select whose predicate does not falls back to Eval.
type narrower interface {
	// narrow writes the positions of sel whose tuple satisfies the
	// predicate to out, from its start, and returns them. sel is ascending
	// within [0, b.N); out has room for len(sel) positions and may be sel
	// itself, which is then compacted in place.
	narrow(b *Batch, sel, out []int32) []int32
}

// narrow applies pred to sel, writing the survivors to out: directly when
// pred is a narrower, through its 0/1 Eval into scratch otherwise.
func narrow(pred Expr, b *Batch, sel, out []int32, scratch *Vec) []int32 {
	if p, ok := pred.(narrower); ok {
		return p.narrow(b, sel, out)
	}
	pred.Eval(b, scratch)
	return selConst('!', false, scratch.I64[:b.N], 0, sel, out)
}

// identity returns buf as the selection of all n positions.
func identity(buf []int32, n int) []int32 {
	buf = resize(buf, n)
	for i := range buf {
		buf[i] = int32(i)
	}
	return buf
}

// every is the selection of every position of a vector, shared and never
// written: a batch's first filter narrows from it into a buffer of its
// own, so no identity is filled per batch.
var every = identity(nil, VectorSize)

// all is the selection of all n positions for a first filter that writes
// its survivors to buf: a prefix of every, or buf filled when n is wider
// than a vector (a join's output), to be narrowed in place.
func all(buf []int32, n int) []int32 {
	if n <= VectorSize {
		return every[:n]
	}
	return identity(buf, n)
}

// mark sets out to the 0/1 vector of length n that is 1 exactly at sel.
func mark(out *Vec, n int, sel []int32) {
	out.Reset()
	out.T = storage.Int64
	out.I64 = resize(out.I64, n)
	clear(out.I64)
	for _, i := range sel {
		out.I64[i] = 1
	}
}

// operand returns e's values over b for reading: a column reference is
// the child's own vector, anything else is evaluated into scratch.
func operand(e Expr, b *Batch, scratch *Vec) *Vec {
	if c, ok := e.(Col); ok {
		src := b.Vecs[c.Idx]
		typeCheck(c.T, src.T, "column ref")
		return src
	}
	e.Eval(b, scratch)
	return scratch
}

// mayFault reports whether evaluating e over a tuple no filter selected
// could panic: e holds an integer "/" whose divisor is not a non-zero
// literal, or a node this package does not define.
func mayFault(e Expr) bool {
	switch e := e.(type) {
	case Col, ConstI, ConstF, Where:
		return false
	case *Arith:
		if k, ok := e.R.(ConstI); e.Op == "/" && e.Type() == storage.Int64 && (!ok || k == 0) {
			return true
		}
		return mayFault(e.L) || mayFault(e.R)
	case *Cmp:
		return mayFault(e.L) || mayFault(e.R)
	case *And:
		return slices.ContainsFunc(e.Kids, mayFault)
	case *Or:
		return slices.ContainsFunc(e.Kids, mayFault)
	}
	return true
}

// scratch gives out, the vector e is evaluated into, a buffer from l
// unless e is a column reference or a literal, which are read in place,
// and does the same for the operands of every Arith below e.
func (l *lease) scratch(e Expr, out *Vec) {
	switch e := e.(type) {
	case Col, ConstI, ConstF:
		return
	case *Arith:
		l.scratch(e.L, &e.l)
		l.scratch(e.R, &e.r)
	}
	if out.empty() {
		*out = l.take(e.Type())
		out.Code = nil
	}
}

// Typed views of a vector and of a literal, so one generic body serves
// every operand type.
func i64s(v *Vec) []int64   { return v.I64 }
func f64s(v *Vec) []float64 { return v.F64 }
func strs(v *Vec) []string  { return v.Str }

func constI(e Expr) (int64, bool)   { k, ok := e.(ConstI); return int64(k), ok }
func constF(e Expr) (float64, bool) { k, ok := e.(ConstF); return float64(k), ok }
func constS(Expr) (string, bool)    { return "", false } // there is no string literal

// Col references input column i.
type Col struct {
	Idx int
	T   storage.ColumnType
}

// Type implements Expr.
func (c Col) Type() storage.ColumnType { return c.T }

// Eval implements Expr: a copy, since out may not alias the input.
func (c Col) Eval(b *Batch, out *Vec) {
	src := b.Vecs[c.Idx]
	typeCheck(c.T, src.T, "column ref")
	out.Reset()
	out.T = c.T
	out.appendVec(src)
}

// ConstI is an int64 literal.
type ConstI int64

// Type implements Expr.
func (ConstI) Type() storage.ColumnType { return storage.Int64 }

// Eval implements Expr. Arith and Cmp keep a literal operand scalar and
// never call it.
func (c ConstI) Eval(b *Batch, out *Vec) {
	out.Reset()
	out.T = storage.Int64
	out.I64 = resize(out.I64, b.N)
	for i := range out.I64 {
		out.I64[i] = int64(c)
	}
}

// ConstF is a float64 literal.
type ConstF float64

// Type implements Expr.
func (ConstF) Type() storage.ColumnType { return storage.Float64 }

// Eval implements Expr.
func (c ConstF) Eval(b *Batch, out *Vec) {
	out.Reset()
	out.T = storage.Float64
	out.F64 = resize(out.F64, b.N)
	for i := range out.F64 {
		out.F64[i] = float64(c)
	}
}

// Arith is one of "+", "-", "*", "/" over numeric operands of equal type.
type Arith struct {
	Op   string
	L, R Expr
	l, r Vec
}

// NewArith builds an arithmetic node.
func NewArith(op string, l, r Expr) *Arith {
	if l.Type() != r.Type() || l.Type() == storage.String {
		panic(fmt.Sprintf("exec: arith %q over %v/%v", op, l.Type(), r.Type()))
	}
	return &Arith{Op: op, L: l, R: r}
}

// Type implements Expr.
func (a *Arith) Type() storage.ColumnType { return a.L.Type() }

// Eval implements Expr.
func (a *Arith) Eval(b *Batch, out *Vec) {
	out.Reset()
	out.T = a.Type()
	switch out.T {
	case storage.Int64:
		out.I64 = resize(out.I64, b.N)
		arithEval(a, b, out.I64, i64s, constI)
	case storage.Float64:
		out.F64 = resize(out.F64, b.N)
		arithEval(a, b, out.F64, f64s, constF)
	}
}

// arithEval picks the loop for a's operand shapes — a literal stays a
// scalar — and runs it over the batch.
func arithEval[T int64 | float64](a *Arith, b *Batch, out []T, vals func(*Vec) []T, konst func(Expr) (T, bool)) {
	lk, lconst := konst(a.L)
	rk, rconst := konst(a.R)
	switch {
	case rconst && !lconst:
		arithVK(a.Op, vals(operand(a.L, b, &a.l)), rk, out)
	case lconst && !rconst:
		arithKV(a.Op, lk, vals(operand(a.R, b, &a.r)), out)
	default:
		arithVV(a.Op, vals(operand(a.L, b, &a.l)), vals(operand(a.R, b, &a.r)), out)
	}
}

func arithVV[T int64 | float64](op string, l, r, out []T) {
	l, r = l[:len(out)], r[:len(out)]
	switch op {
	case "+":
		for i := range out {
			out[i] = l[i] + r[i]
		}
	case "-":
		for i := range out {
			out[i] = l[i] - r[i]
		}
	case "*":
		for i := range out {
			out[i] = l[i] * r[i]
		}
	case "/":
		for i := range out {
			out[i] = l[i] / r[i]
		}
	default:
		panic("exec: bad arith op " + op)
	}
}

func arithVK[T int64 | float64](op string, l []T, k T, out []T) {
	l = l[:len(out)]
	switch op {
	case "+":
		for i := range out {
			out[i] = l[i] + k
		}
	case "-":
		for i := range out {
			out[i] = l[i] - k
		}
	case "*":
		for i := range out {
			out[i] = l[i] * k
		}
	case "/":
		for i := range out {
			out[i] = l[i] / k
		}
	default:
		panic("exec: bad arith op " + op)
	}
}

func arithKV[T int64 | float64](op string, k T, r, out []T) {
	r = r[:len(out)]
	switch op {
	case "+":
		for i := range out {
			out[i] = k + r[i]
		}
	case "-":
		for i := range out {
			out[i] = k - r[i]
		}
	case "*":
		for i := range out {
			out[i] = k * r[i]
		}
	case "/":
		for i := range out {
			out[i] = k / r[i]
		}
	default:
		panic("exec: bad arith op " + op)
	}
}

// Cmp compares two operands with one of "<", "<=", "==", "!=", ">=", ">",
// yielding 0/1 int64. It is a three-way comparison read through the
// operator, so an unordered pair (a NaN on either side) counts as equal:
// "<=" is "not greater", "==" is "neither less nor greater".
type Cmp struct {
	Op   string
	L, R Expr
	l, r Vec
	sel  []int32
}

// NewCmp builds a comparison node.
func NewCmp(op string, l, r Expr) *Cmp {
	if l.Type() != r.Type() {
		panic(fmt.Sprintf("exec: cmp %q over %v/%v", op, l.Type(), r.Type()))
	}
	return &Cmp{Op: op, L: l, R: r}
}

// Type implements Expr.
func (*Cmp) Type() storage.ColumnType { return storage.Int64 }

// Eval implements Expr.
func (c *Cmp) Eval(b *Batch, out *Vec) {
	c.sel = resize(c.sel, b.N)
	mark(out, b.N, c.narrow(b, all(c.sel, b.N), c.sel))
}

func (c *Cmp) narrow(b *Batch, sel, out []int32) []int32 {
	switch c.L.Type() {
	case storage.Int64:
		return cmpNarrow(c, b, sel, out, i64s, constI)
	case storage.Float64:
		return cmpNarrow(c, b, sel, out, f64s, constF)
	default:
		return cmpNarrow(c, b, sel, out, strs, constS)
	}
}

// cmpNarrow resolves c once for the vector — a literal on the left is
// mirrored to the right, the six operators become one of three tests and
// a negation — and runs the matching loop over sel.
func cmpNarrow[T int64 | float64 | string](c *Cmp, b *Batch, sel, out []int32, vals func(*Vec) []T, konst func(Expr) (T, bool)) []int32 {
	op, l, r := c.Op, c.L, c.R
	if _, lconst := konst(l); lconst {
		if _, rconst := konst(r); !rconst {
			l, r = r, l
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">=":
				op = "<="
			case ">":
				op = "<"
			}
		}
	}
	var test byte
	var neg bool
	switch op {
	case "<":
		test = '<'
	case ">=":
		test, neg = '<', true
	case ">":
		test = '>'
	case "<=":
		test, neg = '>', true
	case "!=":
		test = '!'
	case "==":
		test, neg = '!', true
	default:
		panic("exec: bad cmp op " + op)
	}
	lv := vals(operand(l, b, &c.l))
	if k, ok := konst(r); ok {
		return selConst(test, neg, lv, k, sel, out)
	}
	return selVec(test, neg, lv, vals(operand(r, b, &c.r)), sel, out)
}

// selConst writes to out the positions i of sel at which "v[i] test k"
// differs from neg, and returns them. Every position is written and the
// count only advances on a hit, which the compiler turns into a
// conditional move: a filter of any selectivity runs without a
// mispredicted branch per tuple.
func selConst[T int64 | float64 | string](test byte, neg bool, v []T, k T, sel, out []int32) []int32 {
	n, out := 0, out[:len(sel)]
	switch test {
	case '<':
		for _, i := range sel {
			out[n] = i
			if (v[i] < k) != neg {
				n++
			}
		}
	case '>':
		for _, i := range sel {
			out[n] = i
			if (v[i] > k) != neg {
				n++
			}
		}
	default:
		for _, i := range sel {
			out[n] = i
			if (v[i] < k || v[i] > k) != neg {
				n++
			}
		}
	}
	return out[:n]
}

// selVec is selConst with a vector on the right.
func selVec[T int64 | float64 | string](test byte, neg bool, l, r []T, sel, out []int32) []int32 {
	n, out := 0, out[:len(sel)]
	switch test {
	case '<':
		for _, i := range sel {
			out[n] = i
			if (l[i] < r[i]) != neg {
				n++
			}
		}
	case '>':
		for _, i := range sel {
			out[n] = i
			if (l[i] > r[i]) != neg {
				n++
			}
		}
	default:
		for _, i := range sel {
			out[n] = i
			if (l[i] < r[i] || l[i] > r[i]) != neg {
				n++
			}
		}
	}
	return out[:n]
}

func cmpOrdered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// And is a boolean conjunction of any number of 0/1 int64 operands.
type And struct {
	Kids []Expr
	tmp  Vec
	sel  []int32
}

// NewAnd builds a conjunction.
func NewAnd(kids ...Expr) *And {
	for _, k := range kids {
		typeCheck(storage.Int64, k.Type(), "and operand")
	}
	return &And{Kids: kids}
}

// Type implements Expr.
func (*And) Type() storage.ColumnType { return storage.Int64 }

// Eval implements Expr.
func (a *And) Eval(b *Batch, out *Vec) {
	a.sel = resize(a.sel, b.N)
	mark(out, b.N, a.narrow(b, all(a.sel, b.N), a.sel))
}

// narrow runs the conjuncts in order: the first over sel into out, each
// later one over the survivors of the one before, in place; one that
// cannot narrow is evaluated whole and read at them. With no conjunct,
// all of sel survives.
func (a *And) narrow(b *Batch, sel, out []int32) []int32 {
	if len(a.Kids) == 0 {
		return out[:copy(out, sel)]
	}
	for _, k := range a.Kids {
		if len(sel) == 0 {
			return out[:0]
		}
		sel = narrow(k, b, sel, out, &a.tmp)
		out = sel
	}
	return sel
}

// Or is a boolean disjunction.
type Or struct {
	Kids []Expr
	tmp  Vec
}

// NewOr builds a disjunction.
func NewOr(kids ...Expr) *Or {
	for _, k := range kids {
		typeCheck(storage.Int64, k.Type(), "or operand")
	}
	return &Or{Kids: kids}
}

// Type implements Expr.
func (*Or) Type() storage.ColumnType { return storage.Int64 }

// Eval implements Expr.
func (o *Or) Eval(b *Batch, out *Vec) {
	out.Reset()
	out.T = storage.Int64
	out.I64 = resize(out.I64, b.N)
	clear(out.I64)
	for _, k := range o.Kids {
		k.Eval(b, &o.tmp)
		for i, v := range o.tmp.I64[:b.N] {
			if v != 0 {
				out.I64[i] = 1
			}
		}
	}
}

// Where is a predicate read one tuple at a time: w(b, i) reports whether
// tuple i of b qualifies. It reads tuple i only and cannot fault on a
// tuple a filter dropped, so it narrows under Select and And the way Cmp
// does, and a Project may evaluate it over a whole batch (mayFault).
type Where func(b *Batch, i int) bool

// Type implements Expr.
func (Where) Type() storage.ColumnType { return storage.Int64 }

// Eval implements Expr.
func (w Where) Eval(b *Batch, out *Vec) {
	out.Reset()
	out.T = storage.Int64
	out.I64 = resize(out.I64, b.N)
	for i := range out.I64 {
		out.I64[i] = 0
		if w(b, i) {
			out.I64[i] = 1
		}
	}
}

func (w Where) narrow(b *Batch, sel, out []int32) []int32 {
	n, out := 0, out[:len(sel)]
	for _, i := range sel {
		out[n] = i
		if w(b, int(i)) {
			n++
		}
	}
	return out[:n]
}

// StrEq tests string column col for equality with val.
func StrEq(col int, val string) Where {
	return func(b *Batch, i int) bool { return b.Vecs[col].Str[i] == val }
}

// StrPrefix tests whether string column col starts with prefix (stand-in
// for TPC-H LIKE 'x%' predicates).
func StrPrefix(col int, prefix string) Where {
	return func(b *Batch, i int) bool { return strings.HasPrefix(b.Vecs[col].Str[i], prefix) }
}

// StrContains tests whether string column col contains sub (stand-in for
// LIKE '%x%').
func StrContains(col int, sub string) Where {
	return func(b *Batch, i int) bool { return strings.Contains(b.Vecs[col].Str[i], sub) }
}

// InI64 tests membership of int64 column col in a constant set.
func InI64(col int, set map[int64]bool) Where {
	return func(b *Batch, i int) bool { return set[b.Vecs[col].I64[i]] }
}

// InStr tests membership of string column col in a constant set.
func InStr(col int, set map[string]bool) Where {
	return func(b *Batch, i int) bool { return set[b.Vecs[col].Str[i]] }
}

// Between is lo <= e <= hi for int64 expressions (dates, keys).
func Between(e Expr, lo, hi int64) Expr {
	return NewAnd(NewCmp(">=", e, ConstI(lo)), NewCmp("<=", e, ConstI(hi)))
}
