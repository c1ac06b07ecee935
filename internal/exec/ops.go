package exec

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// Select filters its child by a boolean (0/1 int64) predicate. It narrows
// a selection vector — through the predicate itself when that is a
// narrower (a Cmp, an And), through its 0/1 Eval otherwise. Next gathers
// the survivors column by column; a consumer that reads through a
// selection (Project, HashAggr) takes the child's batch and the selection
// instead, through nextSel. A batch in which every tuple qualifies is the
// child's own batch, handed on untouched.
type Select struct {
	Child Op
	Pred  Expr

	out    *Batch // the gathered survivors, made at the first Next
	pred   Vec
	sel    []int32
	closed bool
	lease  *lease // the plan root's, which sel and out come from (nil: made)
}

// Op is an alias to keep plan literals compact.
type Op = Operator

// Schema implements Operator.
func (s *Select) Schema() []storage.ColumnType { return s.Child.Schema() }

// Open implements Operator.
func (s *Select) Open() { s.Child.Open() }

// selector is an operator that can hand on its output without gathering
// it: nextSel returns the next batch (nil at end of stream) and the
// ascending positions of its tuples that belong to the output, nil when
// all of them do. Both are valid until the following call.
type selector interface {
	nextSel() (*Batch, []int32)
}

// Next implements Operator.
func (s *Select) Next() *Batch {
	in, sel := s.nextSel()
	if sel == nil {
		return in
	}
	if s.out == nil {
		s.out = s.lease.batch(s.Child.Schema())
	}
	s.out.gather(in, sel)
	return s.out
}

func (s *Select) nextSel() (*Batch, []int32) {
	for {
		in := s.Child.Next()
		if in == nil {
			return nil, nil
		}
		s.lease.ints(&s.sel, posBuf, in.N)
		switch sel := narrow(s.Pred, in, all(s.sel, in.N), s.sel, &s.pred); len(sel) {
		case 0:
		case in.N:
			return in, nil
		default:
			return in, sel
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

// Project computes expressions over its child. A bare column reference
// is not computed: the output batch carries the child's own vector. Over
// a child that hands on a selection, nextSel passes it through and
// evaluates the expressions over the child's whole batch — unless one of
// them could fault on a tuple the selection dropped, in which case the
// child gathers first.
type Project struct {
	Child Op
	Exprs []Expr

	out    *Batch
	own    []*Vec // per expression, the vector a computed one evaluates into
	faults bool   // some expression may panic on a dropped tuple
	closed bool
	lease  *lease // the plan root's, which out, own and arithmetic scratch come from (nil: made)
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
	p.out = p.lease.batch(p.Schema())
	p.own = slices.Clone(p.out.Vecs)
	p.faults = slices.ContainsFunc(p.Exprs, mayFault)
	for i, e := range p.Exprs {
		p.lease.scratch(e, p.own[i])
	}
}

// Next implements Operator.
func (p *Project) Next() *Batch {
	return p.eval(p.Child.Next())
}

func (p *Project) nextSel() (*Batch, []int32) {
	src, ok := p.Child.(selector)
	if !ok || p.faults {
		return p.Next(), nil
	}
	in, sel := src.nextSel()
	return p.eval(in), sel
}

// eval computes the expressions over in (nil at end of stream).
func (p *Project) eval(in *Batch) *Batch {
	if in == nil {
		return nil
	}
	for i, e := range p.Exprs {
		p.out.Vecs[i] = operand(e, in, p.own[i])
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

// aggAcc accumulates one aggregate for every group, indexed by group id.
// The Sum or Avg of a Float64 column only names its slot in HashAggr's
// float sums; any other aggregate but a count keeps its own values.
type aggAcc struct {
	spec AggSpec
	slot int       // the slot of a float Sum or Avg, -1 for the others
	f    []float64 // a float min or max; the sum of an int average
	i    []int64   // an int sum, min or max
}

// update folds one batch into the accumulator: col holds the aggregated
// column, sel the positions of the tuples to fold, gids the group of each
// (gids[j] is col[sel[j]]'s), fresh the positions of the tuples that
// opened a group in this batch (their ids follow the known ones, in order).
func (acc *aggAcc) update(col *Vec, sel, gids, fresh []int32) {
	switch {
	case col.T == storage.Float64:
		acc.f = accumulate(acc.spec.Kind, acc.f, col.F64, sel, gids, fresh)
	case acc.spec.Kind == AggAvg:
		acc.f = append(acc.f, make([]float64, len(fresh))...)
		for j, g := range gids {
			acc.f[g] += float64(col.I64[sel[j]])
		}
	default:
		acc.i = accumulate(acc.spec.Kind, acc.i, col.I64, sel, gids, fresh)
	}
}

// accumulate is one tight loop over (gids[j], col[sel[j]]). Every group's
// value is built in input order — what keeps a float sum bit-identical to
// a tuple-at-a-time one — and a min or max starts from the group's first
// tuple.
func accumulate[T int64 | float64](kind AggKind, acc, col []T, sel, gids, fresh []int32) []T {
	sel = sel[:len(gids)]
	switch kind {
	case AggMin:
		acc = gather(acc, col, fresh)
		for j, g := range gids {
			if x := col[sel[j]]; x < acc[g] {
				acc[g] = x
			}
		}
	case AggMax:
		acc = gather(acc, col, fresh)
		for j, g := range gids {
			if x := col[sel[j]]; x > acc[g] {
				acc[g] = x
			}
		}
	default:
		acc = append(acc, make([]T, len(fresh))...)
		for j, g := range gids {
			acc[g] += col[sel[j]]
		}
	}
	return acc
}

// HashAggr is a blocking hash aggregation with optional group-by columns.
// Per batch, one pass turns the group columns into dense group ids (in
// order of first sight). Then fold adds each tuple to its group's count
// and float sums: the Sums and Avgs of Float64 columns share one row per
// group, one slot per column however many of them read it, and a pass
// adds up to four slots. Every other aggregate runs one loop of its own.
// Each loop reads its tuples through a selection vector, so a child that
// hands one on (Select, Project) is never gathered.
type HashAggr struct {
	Child  Op
	Groups []int
	Aggs   []AggSpec

	ids      map[string]int32 // binary group key -> group id
	rendered []string         // by group id: the decimal key that fixes the output order
	keys     []*Vec           // per group column, its value by group id
	counts   []int64          // by group id
	summed   []int            // by slot: the Float64 column it sums
	sums     []float64        // by group id, a row of len(summed) sums
	accs     []aggAcc
	order    []int32 // group ids not yet emitted, in output order
	emitted  bool
	out      *Batch
	closed   bool
	lease    *lease // the plan root's, which out and the int32 scratch come from (nil: made)

	// direct caches ids for group keys of one-byte strings: a trie of
	// directNode-entry nodes end to end, one level per group column. Node
	// 0 is a dead node that is never written, node 1 the root. An entry is
	// 0 when unseen, else the next level's node or, at the last level, the
	// group id + 1; a walk that misses goes on through the dead node and
	// stays at 0.
	direct []int32

	// Per-batch scratch, kept across batches so a batch that meets no
	// new group allocates nothing.
	kb    []byte      // the batch's binary keys, end to end
	ends  []int32     // by tuple: where its key ends in kb
	strs  [][]string  // per group column, its values (direct path)
	codes [][]byte    // per group column, its values' codes (direct path)
	cols  [][]float64 // by slot, the batch's values of its column
	gids  []int32     // by selected tuple: its group
	fresh []int32     // positions of the tuples that opened a group
	all   []int32     // the selection of a whole batch
	runs  []int32     // the selected positions, group by group (foldRuns)
}

// directNode is the entries of one direct-table node: "" and the 256
// one-byte strings.
const directNode = 257

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
	a.ids = make(map[string]int32)
	a.out = a.lease.batch(a.Schema())
	a.keys = nil
	for _, v := range a.out.Vecs[:len(a.Groups)] {
		a.keys = append(a.keys, &Vec{T: v.T})
	}
	child := a.Child.Schema()
	a.summed = make([]int, 0, len(a.Aggs))
	a.accs = make([]aggAcc, len(a.Aggs))
	for i, spec := range a.Aggs {
		acc := &a.accs[i]
		acc.spec, acc.slot = spec, -1
		if (spec.Kind == AggSum || spec.Kind == AggAvg) && child[spec.Col] == storage.Float64 {
			if acc.slot = slices.Index(a.summed, spec.Col); acc.slot < 0 {
				acc.slot = len(a.summed)
				a.summed = append(a.summed, spec.Col)
			}
		}
	}
	a.cols = make([][]float64, len(a.summed))
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
	n := min(len(a.order), VectorSize)
	idx := a.order[:n]
	a.order = a.order[n:]
	a.out.Reset()
	for c, k := range a.keys {
		a.out.Vecs[c].gather(k, idx)
	}
	for si := range a.accs {
		acc, v := &a.accs[si], a.out.Vecs[len(a.keys)+si]
		switch w := len(a.summed); {
		case acc.spec.Kind == AggCount:
			v.I64 = gather(v.I64, a.counts, idx)
		case acc.slot >= 0:
			v.F64 = slices.Grow(v.F64, n)
			for _, g := range idx {
				x := a.sums[int(g)*w+acc.slot]
				if acc.spec.Kind == AggAvg {
					x /= float64(a.counts[g])
				}
				v.F64 = append(v.F64, x)
			}
		case acc.spec.Kind == AggAvg:
			v.F64 = slices.Grow(v.F64, n)
			for _, g := range idx {
				v.F64 = append(v.F64, acc.f[g]/float64(a.counts[g]))
			}
		case v.T == storage.Int64:
			v.I64 = gather(v.I64, acc.i, idx)
		default:
			v.F64 = gather(v.F64, acc.f, idx)
		}
	}
	a.out.N = n
	return a.out
}

func (a *HashAggr) consume() {
	next := func() (*Batch, []int32) { return a.Child.Next(), nil }
	if src, ok := a.Child.(selector); ok {
		next = src.nextSel
	}
	for in, sel := next(); in != nil; in, sel = next() {
		a.add(in, sel)
	}
	a.order = identity(nil, len(a.rendered))
	sort.Slice(a.order, func(i, j int) bool { return a.rendered[a.order[i]] < a.rendered[a.order[j]] })
}

// add folds the tuples of in at the positions sel (all of them when sel
// is nil) into the groups.
func (a *HashAggr) add(in *Batch, sel []int32) {
	if sel == nil {
		if len(a.all) < in.N {
			a.lease.ints(&a.all, posBuf, in.N)
			identity(a.all, in.N)
		}
		sel = a.all[:in.N]
	}
	a.groupIDs(in, sel)
	for c, g := range a.Groups {
		a.keys[c].gather(in.Vecs[g], a.fresh)
	}
	a.fold(in, sel)
	for si := range a.accs {
		if acc := &a.accs[si]; acc.spec.Kind != AggCount && acc.slot < 0 {
			acc.update(in.Vecs[acc.spec.Col], sel, a.gids, a.fresh)
		}
	}
}

// fold adds the tuples of in at the positions sel to their groups: each
// counts, and adds its values to the float sums of its group's row. An
// aggregate of at most runGroups groups adds group by group (foldRuns).
// A larger one adds tuple by tuple, four slots a pass, and the last pass,
// of up to three, also counts. Unrolled passes keep every column in a
// register; one loop over all slots per tuple ran no faster than a loop
// per slot. Every sum is built in input order, which keeps it
// bit-identical to a tuple-at-a-time engine's.
func (a *HashAggr) fold(in *Batch, sel []int32) {
	w := len(a.summed)
	a.counts = append(a.counts, make([]int64, len(a.fresh))...)
	a.sums = append(a.sums, make([]float64, w*len(a.fresh))...)
	cols := a.cols
	for k, c := range a.summed {
		cols[k] = in.Vecs[c].F64[:in.N]
	}
	counts, sums, gids, sel := a.counts, a.sums, a.gids, sel[:len(a.gids)]
	if len(counts) <= runGroups && len(counts)*len(gids) < 1<<16 {
		a.foldRuns(sel)
		return
	}
	k := 0
	for ; k+4 <= w; k += 4 {
		c0, c1, c2, c3 := cols[k], cols[k+1], cols[k+2], cols[k+3]
		for j, g := range gids {
			i, row := sel[j], sums[int(g)*w+k:][:4]
			row[0] += c0[i]
			row[1] += c1[i]
			row[2] += c2[i]
			row[3] += c3[i]
		}
	}
	switch cols := cols[k:]; len(cols) {
	case 0:
		for _, g := range gids {
			counts[g]++
		}
	case 1:
		c0 := cols[0]
		for j, g := range gids {
			counts[g]++
			sums[int(g)*w+k] += c0[sel[j]]
		}
	case 2:
		c0, c1 := cols[0], cols[1]
		for j, g := range gids {
			counts[g]++
			i, row := sel[j], sums[int(g)*w+k:][:2]
			row[0] += c0[i]
			row[1] += c1[i]
		}
	case 3:
		c0, c1, c2 := cols[0], cols[1], cols[2]
		for j, g := range gids {
			counts[g]++
			i, row := sel[j], sums[int(g)*w+k:][:3]
			row[0] += c0[i]
			row[1] += c1[i]
			row[2] += c2[i]
		}
	}
}

// runGroups is the most groups an aggregate may have for fold to add
// group by group: Q1's four, its merge's four and a global aggregate's
// one.
const runGroups = 4

// unit is, by group, one step of that group's cursor in foldRuns.
var unit = [runGroups]uint64{1, 1 << 16, 1 << 32, 1 << 48}

// foldRuns is fold over at most runGroups groups. One pass lays the
// positions sel out group by group in runs, each group's run in a region
// of len(gids) entries of its own, through cursors packed 16 bits each
// into one register, so no tuple waits on another's store; a global
// aggregate's run is sel itself. Then each group's run is added up with
// every slot of its row in a local variable, and counted by its length.
// So no add waits on the store of the one before, as it does when
// consecutive tuples of one group add into the same row in memory, and
// each group still adds its values in input order.
func (a *HashAggr) foldRuns(sel []int32) {
	ng, n, gids := len(a.counts), len(a.gids), a.gids
	runs, cur := sel, uint64(n) // cur: by group, where its run ends in runs
	if ng > 1 {
		a.lease.ints(&a.runs, runsBuf, ng*n)
		runs, cur = a.runs, 0
		for g := 1; g < ng; g++ {
			cur |= uint64(g*n) << (16 * g)
		}
		sel := sel[:n]
		for j, g := range gids {
			runs[cur>>(16*(g&3))&0xffff] = sel[j]
			cur += unit[g&3]
		}
	}
	w := len(a.summed)
	for g := 0; g < ng; g++ {
		run := runs[g*n : cur>>(16*g)&0xffff]
		a.counts[g] += int64(len(run))
		row := a.sums[g*w : (g+1)*w]
		for k := 0; k < w; k += 5 {
			sumRun(row[k:], a.cols[k:min(k+5, w)], run)
		}
	}
}

// sumRun adds the values of one to five columns of equal length at the
// positions run to the sums row[0:len(cols)], in order, each sum in a
// local variable.
func sumRun(row []float64, cols [][]float64, run []int32) {
	c0 := cols[0]
	switch len(cols) {
	case 1:
		s0 := row[0]
		for _, i := range run {
			s0 += c0[i]
		}
		row[0] = s0
	case 2:
		c1 := cols[1][:len(c0)]
		s0, s1 := row[0], row[1]
		for _, i := range run {
			s0 += c0[i]
			s1 += c1[i]
		}
		row[0], row[1] = s0, s1
	case 3:
		c1, c2 := cols[1][:len(c0)], cols[2][:len(c0)]
		s0, s1, s2 := row[0], row[1], row[2]
		for _, i := range run {
			s0 += c0[i]
			s1 += c1[i]
			s2 += c2[i]
		}
		row[0], row[1], row[2] = s0, s1, s2
	case 4:
		c1, c2, c3 := cols[1][:len(c0)], cols[2][:len(c0)], cols[3][:len(c0)]
		s0, s1, s2, s3 := row[0], row[1], row[2], row[3]
		for _, i := range run {
			s0 += c0[i]
			s1 += c1[i]
			s2 += c2[i]
			s3 += c3[i]
		}
		row[0], row[1], row[2], row[3] = s0, s1, s2, s3
	default:
		c1, c2, c3, c4 := cols[1][:len(c0)], cols[2][:len(c0)], cols[3][:len(c0)], cols[4][:len(c0)]
		s0, s1, s2, s3, s4 := row[0], row[1], row[2], row[3], row[4]
		for _, i := range run {
			s0 += c0[i]
			s1 += c1[i]
			s2 += c2[i]
			s3 += c3[i]
			s4 += c4[i]
		}
		row[0], row[1], row[2], row[3], row[4] = s0, s1, s2, s3, s4
	}
}

// groupIDs sets gids to the group of each tuple of in at the positions
// sel, and fresh to the positions of those that opened one. Groups are
// told apart by a binary key — eight bytes per number, a string's bytes
// and a '|' — laid out for the whole batch column by column, so no value
// is rendered or type-switched per tuple; a new group's decimal key is
// rendered once, when it opens. A batch whose selected group values are
// all one-byte strings skips the key and the hash: it indexes the direct
// table.
func (a *HashAggr) groupIDs(in *Batch, sel []int32) {
	n := len(sel)
	a.lease.ints(&a.gids, posBuf, n)
	a.fresh = a.fresh[:0]
	if len(a.Groups) == 0 {
		// A global aggregate is one group, opened by the first tuple.
		clear(a.gids)
		if n > 0 && len(a.rendered) == 0 {
			a.rendered = append(a.rendered, "")
			a.fresh = append(a.fresh, sel[0])
		}
		return
	}
	if a.groupIDsDirect(in, sel) {
		return
	}

	// Key lengths, then each tuple's start offset in kb.
	ends := resize(a.ends, n)
	clear(ends)
	fixed := int32(0)
	for _, g := range a.Groups {
		if v := in.Vecs[g]; v.T == storage.String {
			for j, i := range sel {
				ends[j] += int32(len(v.Str[i])) + 1
			}
		} else {
			fixed += 8
		}
	}
	total := int32(0)
	for i, l := range ends {
		ends[i] = total
		total += l + fixed
	}
	kb := resize(a.kb, int(total))
	// Each column appends its value to every tuple's key, moving the
	// tuple's cursor from the start of its key to the end.
	for _, g := range a.Groups {
		switch v := in.Vecs[g]; v.T {
		case storage.Int64:
			for j, i := range sel {
				binary.LittleEndian.PutUint64(kb[ends[j]:], uint64(v.I64[i]))
				ends[j] += 8
			}
		case storage.Float64:
			for j, i := range sel {
				x := v.F64[i]
				if x != x {
					x = math.NaN() // every NaN renders "NaN": one group
				}
				binary.LittleEndian.PutUint64(kb[ends[j]:], math.Float64bits(x))
				ends[j] += 8
			}
		case storage.String:
			for j, i := range sel {
				end := ends[j] + int32(copy(kb[ends[j]:], v.Str[i]))
				kb[end] = '|'
				ends[j] = end + 1
			}
		}
	}
	a.kb, a.ends = kb, ends

	start := int32(0)
	for j, end := range ends {
		a.gids[j] = a.groupOf(in, int(sel[j]), kb[start:end])
		start = end
	}
}

// groupOf is the group of tuple i of in, whose binary key is key. It is
// the only place a group id is assigned: an unseen key opens a group.
func (a *HashAggr) groupOf(in *Batch, i int, key []byte) int32 {
	// A map index by string(bytes) does not allocate; the key string is
	// only materialised for a group seen for the first time.
	id, ok := a.ids[string(key)]
	if !ok {
		id = int32(len(a.rendered))
		a.ids[string(key)] = id
		a.rendered = append(a.rendered, a.render(in, i))
		a.fresh = append(a.fresh, int32(i))
	}
	return id
}

// groupIDsDirect sets gids through the direct table, without hashing,
// when every group column of in is a String and every selected value in
// it is at most one byte, and reports whether it did. One pass walks the
// table — from the values' codes when every group column carries them,
// checking the strings' lengths otherwise; a tuple whose key the table
// lacks is only marked, so nothing is opened before the batch is
// accepted. The table is only a cache in front of the map: a marked tuple
// is walked again through its strings, in order, since an earlier one of
// the batch may have opened its group, and a key still unseen goes
// through groupOf. So ids keep their first-sight order and a group is the
// same one whichever path each batch takes.
func (a *HashAggr) groupIDsDirect(in *Batch, sel []int32) bool {
	a.strs, a.codes = a.strs[:0], a.codes[:0]
	for _, g := range a.Groups {
		v := in.Vecs[g]
		if v.T != storage.String {
			return false
		}
		a.strs = append(a.strs, v.Str[:in.N])
		if v.Code != nil {
			a.codes = append(a.codes, v.Code[:in.N])
		}
	}
	if len(a.direct) == 0 {
		a.lease.ints(&a.direct, tableBuf, 2*directNode)
		clear(a.direct)
	}
	t, strs, gids, missed := a.direct, a.strs, a.gids[:len(sel)], false
	if codes := a.codes; len(codes) == len(strs) {
		// A column at a time: no tuple waits on another's loads.
		root, col := t[directNode+1:][:256], codes[0]
		for j, i := range sel {
			gids[j] = root[col[i]]
		}
		for _, col := range codes[1:] {
			for j, i := range sel {
				gids[j] = t[int(gids[j])*directNode+1+int(col[i])]
			}
		}
	} else {
		for j, i := range sel {
			e, ok := directWalk(t, strs, i)
			if !ok {
				return false
			}
			gids[j] = e
		}
	}
	for j, e := range gids {
		if e == 0 {
			missed = true
		}
		gids[j] = e - 1
	}
	if !missed {
		return true
	}
	for j, g := range gids {
		if g >= 0 {
			continue
		}
		e, _ := directWalk(a.direct, strs, sel[j])
		if e == 0 {
			e = a.directMiss(in, int(sel[j])) + 1
		}
		gids[j] = e - 1
	}
	return true
}

// directWalk follows tuple i's group values down the direct table t from
// its root and returns the entry it ends at: the group id + 1, or 0 when
// t has not seen the key. ok is false when a value is longer than a byte.
func directWalk(t []int32, strs [][]string, i int32) (e int32, ok bool) {
	e = 1
	for _, col := range strs {
		s := col[i]
		if len(s) > 1 {
			return 0, false
		}
		e = t[int(e)*directNode+directCode(s)]
	}
	return e, true
}

// directMiss resolves tuple i, whose key the direct table lacks, through
// groupOf and records the id there, adding the nodes its path needs.
func (a *HashAggr) directMiss(in *Batch, i int) int32 {
	// The map path's binary key: each string and a '|'.
	kb := a.kb[:0]
	for _, col := range a.strs {
		kb = append(append(kb, col[i]...), '|')
	}
	a.kb = kb
	id := a.groupOf(in, i, kb)
	last := len(a.strs) - 1
	slot := directNode // the root
	for _, col := range a.strs[:last] {
		slot += directCode(col[i])
		if a.direct[slot] == 0 {
			a.direct[slot] = int32(len(a.direct) / directNode)
			a.direct = append(a.direct, make([]int32, directNode)...)
		}
		slot = int(a.direct[slot]) * directNode
	}
	a.direct[slot+directCode(a.strs[last][i])] = id + 1
	return id
}

// directCode is a string of at most one byte's entry in a direct-table
// node: 0 for "", 1+b for the byte b.
func directCode(s string) int {
	if s == "" {
		return 0
	}
	return 1 + int(s[0])
}

// render is tuple i's group key in decimal, '|' after every value.
func (a *HashAggr) render(in *Batch, i int) string {
	var kb []byte
	for _, g := range a.Groups {
		switch v := in.Vecs[g]; v.T {
		case storage.Int64:
			kb = strconv.AppendInt(kb, v.I64[i], 10)
		case storage.Float64:
			kb = strconv.AppendFloat(kb, v.F64[i], 'g', -1, 64)
		case storage.String:
			kb = append(kb, v.Str[i]...)
		}
		kb = append(kb, '|')
	}
	return string(kb)
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

	table  map[int64][]int32 // key -> row indexes in built
	built  *Batch
	out    *Batch
	closed bool
	// Matching (probe row, build row) pairs of the current probe batch.
	probeIdx, buildIdx []int32
}

// Schema implements Operator.
func (j *HashJoin) Schema() []storage.ColumnType {
	return append(append([]storage.ColumnType{}, j.Probe.Schema()...), j.Build.Schema()...)
}

// Open implements Operator: materializes and hashes the build side.
func (j *HashJoin) Open() {
	j.Probe.Open()
	j.built = Collect(j.Build)
	j.table = make(map[int64][]int32)
	keys := j.built.Vecs[j.BuildKey]
	typeCheck(storage.Int64, keys.T, "join build key")
	for i, k := range keys.I64[:j.built.N] {
		j.table[k] = append(j.table[k], int32(i))
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
		keys := in.Vecs[j.ProbeKey]
		typeCheck(storage.Int64, keys.T, "join probe key")
		j.probeIdx, j.buildIdx = j.probeIdx[:0], j.buildIdx[:0]
		for i, k := range keys.I64[:in.N] {
			for _, bi := range j.table[k] {
				j.probeIdx = append(j.probeIdx, int32(i))
				j.buildIdx = append(j.buildIdx, bi)
			}
		}
		if len(j.probeIdx) == 0 {
			continue
		}
		j.out.Reset()
		np := len(in.Vecs)
		for c, v := range in.Vecs {
			j.out.Vecs[c].gather(v, j.probeIdx)
		}
		for c, v := range j.built.Vecs {
			j.out.Vecs[np+c].gather(v, j.buildIdx)
		}
		j.out.N = len(j.probeIdx)
		return j.out
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
	perm   []int32
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
		s.perm = identity(nil, s.all.N)
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
	n := min(len(s.perm)-s.pos, VectorSize)
	s.out.gather(s.all, s.perm[s.pos:s.pos+n])
	s.pos += n
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

// Apply runs a subquery inside Open: it drains Inner, handing each batch
// to Each, closes Inner and only then opens Outer, whose predicates read
// what Each filled in. Next, Close and Schema are Outer's. So a plan's
// whole tree, every scan it will read included, exists before Open, and
// building it reads nothing.
type Apply struct {
	Inner Op
	Each  func(*Batch)
	Outer Op
}

// Schema implements Operator.
func (a *Apply) Schema() []storage.ColumnType { return a.Outer.Schema() }

// Open implements Operator.
func (a *Apply) Open() {
	a.Inner.Open()
	for b := a.Inner.Next(); b != nil; b = a.Inner.Next() {
		a.Each(b)
	}
	a.Inner.Close()
	a.Outer.Open()
}

// Next implements Operator.
func (a *Apply) Next() *Batch { return a.Outer.Next() }

// Close implements Operator (Open already closed Inner).
func (a *Apply) Close() { a.Outer.Close() }
