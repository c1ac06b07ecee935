// Package pdt implements Positional Delta Trees (Héman et al., SIGMOD
// 2010), the in-memory differential update structures Vectorwise uses for
// trickle updates, as recapped in §2.1 of the paper.
//
// A PDT records Insert, Delete and Modify actions against a stable tuple
// stream. Stable tuples are addressed by SID (Stable ID, dense, 0-based);
// the merged output stream is addressed by RID (Row ID). The package
// provides the three positional conversions the paper's Figure 4
// illustrates — RIDtoSID, SIDtoRIDlow and SIDtoRIDhigh — plus a run-based
// merge planner (SegmentsRID) that scan operators use to produce the updated
// image, PDT stacking with Propagate (differences-on-differences, used for
// snapshot isolation), and checkpoint materialization.
//
// The reference implementation stores update nodes in a SID-sorted slice
// with linear-time positional prefix sums. The original uses a counted
// tree with logarithmic updates; at simulation scale (thousands of
// updates) the slice is simpler and the public interface is identical, so
// a tree can be swapped in without touching callers.
package pdt

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/storage"
)

// Value is a dynamically-typed column value.
type Value struct {
	T   storage.ColumnType
	I64 int64
	F64 float64
	Str string
}

// IntVal constructs an Int64 value.
func IntVal(v int64) Value { return Value{T: storage.Int64, I64: v} }

// FloatVal constructs a Float64 value.
func FloatVal(v float64) Value { return Value{T: storage.Float64, F64: v} }

// StrVal constructs a String value.
func StrVal(v string) Value { return Value{T: storage.String, Str: v} }

// Equal reports deep equality.
func (v Value) Equal(o Value) bool { return v == o }

func (v Value) String() string {
	switch v.T {
	case storage.Int64:
		return fmt.Sprintf("%d", v.I64)
	case storage.Float64:
		return fmt.Sprintf("%g", v.F64)
	default:
		return v.Str
	}
}

// Row is one tuple's values in schema order.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// node holds all differential state anchored at one SID: tuples inserted
// before stable tuple sid, whether that stable tuple is deleted, and its
// column modifications.
type node struct {
	sid     int64
	inserts []Row
	deleted bool
	mods    map[int]Value
}

func (n *node) empty() bool {
	return len(n.inserts) == 0 && !n.deleted && len(n.mods) == 0
}

// delta is the RID-SID shift contributed by this node for positions after
// it: inserts add, a delete subtracts.
func (n *node) delta() int64 {
	d := int64(len(n.inserts))
	if n.deleted {
		d--
	}
	return d
}

// PDT is a positional delta tree over a stable stream of stableCount
// tuples with the given schema.
type PDT struct {
	schema      storage.Schema
	stableCount int64
	nodes       []node // sorted by sid, unique sids
}

// New creates an empty PDT over a stable stream of n tuples.
func New(schema storage.Schema, n int64) *PDT {
	if n < 0 {
		panic("pdt: negative stable count")
	}
	return &PDT{schema: schema, stableCount: n}
}

// Schema returns the tuple schema.
func (p *PDT) Schema() storage.Schema { return p.schema }

// NumOps returns the number of non-empty update nodes (for tests and
// memory accounting).
func (p *PDT) NumOps() int {
	c := 0
	for i := range p.nodes {
		c += len(p.nodes[i].inserts)
		if p.nodes[i].deleted {
			c++
		}
		c += len(p.nodes[i].mods)
	}
	return c
}

// Empty reports whether the PDT holds no updates (merging is identity).
func (p *PDT) Empty() bool { return len(p.nodes) == 0 }

// NumTuples returns the tuple count of the merged image.
func (p *PDT) NumTuples() int64 {
	n := p.stableCount
	for i := range p.nodes {
		n += p.nodes[i].delta()
	}
	return n
}

// findNode returns the index of the node with the given sid, or the
// insertion point and false.
func (p *PDT) findNode(sid int64) (int, bool) {
	i := sort.Search(len(p.nodes), func(i int) bool { return p.nodes[i].sid >= sid })
	if i < len(p.nodes) && p.nodes[i].sid == sid {
		return i, true
	}
	return i, false
}

func (p *PDT) getNode(sid int64) *node {
	i, ok := p.findNode(sid)
	if !ok {
		p.nodes = append(p.nodes, node{})
		copy(p.nodes[i+1:], p.nodes[i:])
		p.nodes[i] = node{sid: sid, mods: make(map[int]Value)}
	}
	return &p.nodes[i]
}

func (p *PDT) dropIfEmpty(sid int64) {
	i, ok := p.findNode(sid)
	if ok && p.nodes[i].empty() {
		p.nodes = append(p.nodes[:i], p.nodes[i+1:]...)
	}
}

// locate resolves a RID in the merged image to the SID of its position
// and, for an inserted tuple, its index within the node's insert list
// (insIdx >= 0). For a plain or modified stable tuple, insIdx is -1.
func (p *PDT) locate(rid int64) (sid int64, insIdx int) {
	if rid < 0 || rid >= p.NumTuples() {
		panic(fmt.Sprintf("pdt: RID %d out of range [0,%d)", rid, p.NumTuples()))
	}
	var delta int64 // cumulative shift from nodes fully before the answer
	for i := range p.nodes {
		n := &p.nodes[i]
		// RID of the first insert of this node.
		firstInsRID := n.sid + delta
		if rid < firstInsRID {
			// Plain stable tuple before this node.
			return rid - delta, -1
		}
		if rid < firstInsRID+int64(len(n.inserts)) {
			return n.sid, int(rid - firstInsRID)
		}
		if !n.deleted && rid == firstInsRID+int64(len(n.inserts)) && n.sid < p.stableCount {
			// The stable tuple anchored at this node (possibly modified).
			return n.sid, -1
		}
		delta += n.delta()
	}
	return rid - delta, -1
}

// RIDtoSID translates a merged-image position to a stable position. For
// inserted tuples it returns the SID of the first stable tuple that
// follows them (per §2.1).
func (p *PDT) RIDtoSID(rid int64) int64 {
	sid, _ := p.locate(rid)
	return sid
}

// SIDtoRIDlow returns the lowest RID that maps to sid: the position of the
// first tuple inserted before stable tuple sid, or of the stable tuple
// itself. For a deleted stable tuple it returns the RID where the tuple
// would be (the lowest RID translating to a higher SID), matching the
// paper's one-way arrows in Figure 4.
func (p *PDT) SIDtoRIDlow(sid int64) int64 {
	if sid < 0 || sid > p.stableCount {
		panic(fmt.Sprintf("pdt: SID %d out of range [0,%d]", sid, p.stableCount))
	}
	var delta int64
	for i := range p.nodes {
		n := &p.nodes[i]
		if n.sid >= sid {
			break
		}
		delta += n.delta()
	}
	return sid + delta
}

// SIDtoRIDhigh returns the highest RID that maps to sid: the stable
// tuple's own position if visible, else the last insert anchored at sid,
// else the would-be position.
func (p *PDT) SIDtoRIDhigh(sid int64) int64 {
	rid := p.SIDtoRIDlow(sid)
	if i, ok := p.findNode(sid); ok {
		n := &p.nodes[i]
		rid += int64(len(n.inserts))
		if (n.deleted || sid == p.stableCount) && len(n.inserts) > 0 {
			rid-- // no visible stable tuple: the last insert is highest
		}
	}
	return rid
}

// InsertAt inserts row so that it occupies position rid in the merged
// image; tuples at rid and beyond shift right. rid may equal NumTuples()
// to append.
func (p *PDT) InsertAt(rid int64, row Row) {
	if err := p.checkRow(row); err != nil {
		panic(err)
	}
	total := p.NumTuples()
	if rid < 0 || rid > total {
		panic(fmt.Sprintf("pdt: insert RID %d out of range [0,%d]", rid, total))
	}
	if rid == total {
		n := p.getNode(p.stableCount)
		n.inserts = append(n.inserts, row.Clone())
		return
	}
	sid, insIdx := p.locate(rid)
	n := p.getNode(sid)
	if insIdx < 0 {
		// Inserting directly before the stable tuple (after any existing
		// inserts at this anchor).
		n.inserts = append(n.inserts, row.Clone())
		return
	}
	n.inserts = append(n.inserts, nil)
	copy(n.inserts[insIdx+1:], n.inserts[insIdx:])
	n.inserts[insIdx] = row.Clone()
}

// DeleteAt removes the tuple at position rid in the merged image. Deleting
// an inserted tuple cancels the insert; deleting a stable tuple records a
// delete node.
func (p *PDT) DeleteAt(rid int64) {
	sid, insIdx := p.locate(rid)
	n := p.getNode(sid)
	if insIdx >= 0 {
		n.inserts = append(n.inserts[:insIdx], n.inserts[insIdx+1:]...)
		p.dropIfEmpty(sid)
		return
	}
	if sid >= p.stableCount {
		panic("pdt: delete past end of stable stream")
	}
	n.deleted = true
	// A deleted tuple's pending modifications are moot.
	n.mods = make(map[int]Value)
	p.dropIfEmpty(sid)
}

// ModifyAt changes column col of the tuple at position rid.
func (p *PDT) ModifyAt(rid int64, col int, v Value) {
	if col < 0 || col >= len(p.schema) {
		panic(fmt.Sprintf("pdt: column %d out of range", col))
	}
	if v.T != p.schema[col].Type {
		panic(fmt.Sprintf("pdt: type mismatch for column %d: %v vs %v", col, v.T, p.schema[col].Type))
	}
	sid, insIdx := p.locate(rid)
	n := p.getNode(sid)
	if insIdx >= 0 {
		n.inserts[insIdx][col] = v
		return
	}
	n.mods[col] = v
}

func (p *PDT) checkRow(row Row) error {
	if len(row) != len(p.schema) {
		return fmt.Errorf("pdt: row has %d values, schema has %d", len(row), len(p.schema))
	}
	for i, v := range row {
		if v.T != p.schema[i].Type {
			return fmt.Errorf("pdt: column %d type %v, want %v", i, v.T, p.schema[i].Type)
		}
	}
	return nil
}

// SegKind discriminates merge segments.
type SegKind int

const (
	// SegStable is a run of visible stable tuples [Lo,Hi), possibly with
	// per-SID column modifications.
	SegStable SegKind = iota
	// SegInsert is a run of PDT-resident inserted tuples.
	SegInsert
)

// Segment is one run of the merged output stream. The segments
// SegmentsRID returns are in image order and abut exactly.
type Segment struct {
	Kind SegKind
	Lo   int64 // stable SID range (SegStable)
	Hi   int64
	Rows []Row                   // inserted tuples (SegInsert)
	Mods map[int64]map[int]Value // per-SID overrides within [Lo,Hi)
}

// SegmentsRID plans the merge for image positions [ridLo, ridHi): the
// sequence of stable runs (with deletes carved out and mods attached) and
// insert runs a scan must produce. This is the per-chunk merge
// re-initialization the CScan operator performs after every out-of-order
// chunk delivery (§2.1). Planning writes nothing: the segments alias the
// PDT's rows and mods, and stay valid until the PDT next changes.
func (p *PDT) SegmentsRID(ridLo, ridHi int64) []Segment {
	total := p.NumTuples()
	if ridLo < 0 || ridHi > total || ridLo > ridHi {
		panic(fmt.Sprintf("pdt: RID range [%d,%d) out of [0,%d]", ridLo, ridHi, total))
	}
	var out []Segment
	pos, sid := int64(0), int64(0) // image and stable cursors
	// clip places an n-tuple piece at pos and returns the offsets [a, b)
	// of its part inside [ridLo, ridHi); a >= b when none of it is.
	clip := func(n int64) (a, b int64) {
		a, b = max(ridLo-pos, 0), min(ridHi-pos, n)
		pos += n
		return a, b
	}
	// The image's pieces, in order: before each node the plain stable run
	// up to it, then its inserts and its visible anchored tuple; last the
	// trailing stable run.
	for i := 0; i <= len(p.nodes) && pos < ridHi; i++ {
		next := p.stableCount
		if i < len(p.nodes) {
			next = p.nodes[i].sid
		}
		if a, b := clip(next - sid); a < b {
			out = appendSeg(out, Segment{Kind: SegStable, Lo: sid + a, Hi: sid + b})
		}
		if i == len(p.nodes) {
			break
		}
		n := &p.nodes[i]
		if a, b := clip(int64(len(n.inserts))); a < b {
			out = appendSeg(out, Segment{Kind: SegInsert, Rows: n.inserts[a:b:b]})
		}
		sid = min(next+1, p.stableCount) // past the anchored tuple, visible or not
		if next == p.stableCount || n.deleted {
			continue
		}
		if a, b := clip(1); a < b {
			s := Segment{Kind: SegStable, Lo: next, Hi: next + 1}
			if len(n.mods) > 0 {
				s.Mods = map[int64]map[int]Value{next: n.mods}
			}
			out = appendSeg(out, s)
		}
	}
	return out
}

// appendSeg appends s to a plan, merging it into the last segment when
// both are insert runs or abutting stable runs.
func appendSeg(out []Segment, s Segment) []Segment {
	if k := len(out) - 1; k >= 0 && out[k].Kind == s.Kind {
		last := &out[k]
		switch {
		case s.Kind == SegInsert:
			last.Rows = append(last.Rows, s.Rows...)
			return out
		case last.Hi == s.Lo:
			last.Hi = s.Hi
			if last.Mods == nil {
				last.Mods = s.Mods
			} else {
				maps.Copy(last.Mods, s.Mods)
			}
			return out
		}
	}
	return append(out, s)
}

// Image materializes the full merged table as ColumnData, reading stable
// values directly from the snapshot (bypassing the buffer pool); used by
// checkpointing and by tests as the reference semantics.
func (p *PDT) Image(snap *storage.Snapshot) *storage.ColumnData {
	out := storage.NewColumnData()
	n := p.NumTuples()
	segs := p.SegmentsRID(0, n)
	for c, def := range p.schema {
		switch def.Type {
		case storage.Int64:
			out.I64[c] = imageCol(segs, n, c, snap.ReadInt64, func(v Value) int64 { return v.I64 })
		case storage.Float64:
			out.F64[c] = imageCol(segs, n, c, snap.ReadFloat64, func(v Value) float64 { return v.F64 })
		case storage.String:
			out.Str[c] = imageCol(segs, n, c, snap.ReadString, func(v Value) string { return v.Str })
		}
	}
	return out
}

// imageCol merges column c of the plan segs into an n-value column,
// reading each stable run straight into its place (read writes into a dst
// of capacity hi-lo without growing it).
func imageCol[T any](segs []Segment, n int64, c int, read func(int, int64, int64, []T) []T, val func(Value) T) []T {
	col := make([]T, 0, n)
	for _, s := range segs {
		if s.Kind == SegInsert {
			for _, r := range s.Rows {
				col = append(col, val(r[c]))
			}
			continue
		}
		base := len(col)
		col = col[:base+int(s.Hi-s.Lo)]
		read(c, s.Lo, s.Hi, col[base:])
		for sid, mods := range s.Mods {
			if v, ok := mods[c]; ok {
				col[base+int(sid-s.Lo)] = val(v)
			}
		}
	}
	return col
}

// Clone returns a deep copy (used to give each transaction a private
// trans-PDT snapshot).
func (p *PDT) Clone() *PDT {
	out := &PDT{schema: p.schema, stableCount: p.stableCount}
	out.nodes = make([]node, len(p.nodes))
	for i := range p.nodes {
		src := &p.nodes[i]
		dst := &out.nodes[i]
		dst.sid = src.sid
		dst.deleted = src.deleted
		dst.inserts = make([]Row, len(src.inserts))
		for j, r := range src.inserts {
			dst.inserts[j] = r.Clone()
		}
		dst.mods = make(map[int]Value, len(src.mods))
		for k, v := range src.mods {
			dst.mods[k] = v
		}
	}
	return out
}

// Propagate merges upper (whose positions refer to p's merged image) down
// into p, after which p alone produces the composed image. This is the
// layer-collapse used when a transaction commits its trans-PDT into the
// shared write-PDT (§2.1: differential structures can be stacked).
func (p *PDT) Propagate(upper *PDT) {
	if upper.stableCount != p.NumTuples() {
		panic(fmt.Sprintf("pdt: propagate mismatch: upper stable %d, lower image %d",
			upper.stableCount, p.NumTuples()))
	}
	var shift int64 // image-position shift caused by ops already propagated
	for i := range upper.nodes {
		n := &upper.nodes[i]
		for j := range n.inserts {
			p.InsertAt(n.sid+shift+int64(j), n.inserts[j])
		}
		shift += int64(len(n.inserts))
		if n.sid < upper.stableCount {
			pos := n.sid + shift
			if n.deleted {
				p.DeleteAt(pos)
				shift--
			} else {
				for c, v := range n.mods {
					p.ModifyAt(pos, c, v)
				}
			}
		}
	}
}
