// Package exec implements a vectorized query execution engine in the
// style of X100/Vectorwise: operators pull fixed-size batches of column
// vectors, scans read columnar pages through the buffer manager (Scan) or
// receive chunks from the Active Buffer Manager (CScan), and intra-query
// parallelism uses Exchange operators with static range partitioning
// (§2.2, Equation 1).
//
// Work on a batch is done by per-vector primitives: whatever has to be
// interpreted — the operand types, the operator, whether an operand is a
// constant — is decided once per vector, and the values then run through
// a tight type-specialised loop (expr.go for comparisons and arithmetic,
// gather below for moving tuples, HashAggr's accumulators). Tuples go
// from page to aggregate without being moved: a scan's vector is the
// page's own memory whenever a read allows it (segments.go), and a filter
// hands its selection vector (the positions of the surviving tuples) on
// to a Project and a HashAggr, which read through it. Every other
// consumer gets dense batches: Next gathers the survivors.
//
// Execution happens inside the virtual-time simulation: operators charge
// per-tuple CPU cost against a shared CPU resource, and page misses block
// on the simulated disk, so query latency reflects both I/O and CPU as in
// the paper's experiments.
package exec

import (
	"fmt"
	"slices"

	"repro/internal/storage"
)

// VectorSize is the number of tuples per batch.
const VectorSize = 1024

// Vec is a typed column vector.
type Vec struct {
	T   storage.ColumnType
	I64 []int64
	F64 []float64
	Str []string
	// Code, when non-nil, is a String vector's values as bytes: every
	// value is one byte long and Code[i] == Str[i][0]. A scan carries it
	// from pages that have it (storage.Page.Code); every other writer of
	// Str drops it.
	Code []byte
}

// Len returns the number of values.
func (v *Vec) Len() int {
	switch v.T {
	case storage.Int64:
		return len(v.I64)
	case storage.Float64:
		return len(v.F64)
	default:
		return len(v.Str)
	}
}

// Reset truncates the vector to zero length.
func (v *Vec) Reset() {
	v.I64 = v.I64[:0]
	v.F64 = v.F64[:0]
	v.Str = v.Str[:0]
	v.Code = nil
}

// empty reports whether v has no buffer: no room for a value.
func (v *Vec) empty() bool { return cap(v.I64)+cap(v.F64)+cap(v.Str) == 0 }

// reserve gives v room for n more values.
func (v *Vec) reserve(n int) {
	switch v.T {
	case storage.Int64:
		v.I64 = slices.Grow(v.I64, n)
	case storage.Float64:
		v.F64 = slices.Grow(v.F64, n)
	case storage.String:
		v.Str = slices.Grow(v.Str, n)
	}
}

// appendVec appends every value of src to v.
func (v *Vec) appendVec(src *Vec) {
	switch v.T {
	case storage.Int64:
		v.I64 = append(v.I64, src.I64...)
	case storage.Float64:
		v.F64 = append(v.F64, src.F64...)
	case storage.String:
		v.Code = appendCodes(v.Code, src.Code, 0, int64(len(src.Str)))
		v.Str = append(v.Str, src.Str...)
	}
}

// appendCodes appends the codes src[a:b] of the values appended to a
// vector to its codes dst (src nil: those values have none): the vector
// keeps carrying codes only while every value appended to it comes with
// its own.
func appendCodes(dst, src []byte, a, b int64) []byte {
	if a == b {
		return dst
	}
	if dst == nil || src == nil {
		return nil
	}
	return append(dst, src[a:b]...)
}

// gather appends src's values at the positions idx to v: the one way
// tuples move between vectors, a typed loop per column.
func (v *Vec) gather(src *Vec, idx []int32) {
	switch v.T {
	case storage.Int64:
		v.I64 = gather(v.I64, src.I64, idx)
	case storage.Float64:
		v.F64 = gather(v.F64, src.F64, idx)
	case storage.String:
		v.Str = gather(v.Str, src.Str, idx)
		v.Code = nil
	}
}

func gather[T any](dst, src []T, idx []int32) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(idx))[:n+len(idx)]
	out := dst[n:][:len(idx)]
	for j, i := range idx {
		out[j] = src[i]
	}
	return dst
}

// resize returns s with length n, reusing its capacity when it can; the
// contents are unspecified.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// Batch is a set of equal-length vectors.
type Batch struct {
	N    int
	Vecs []*Vec

	own []Vec // the vectors Vecs points at, unless an operator re-points one
}

// NewBatch allocates a batch with the given column types. Its vectors
// start empty and grow to what they come to hold (Reset keeps it), so the
// output of a filter or an aggregate costs what it outputs.
func NewBatch(types []storage.ColumnType) *Batch {
	b := new(Batch)
	b.retype(types)
	return b
}

// retype empties b and points it at empty vectors of its own of the given
// types, reusing the room of its slices.
func (b *Batch) retype(types []storage.ColumnType) {
	n := len(types)
	b.N = 0
	if cap(b.own) < n {
		b.own = make([]Vec, n)
	}
	if cap(b.Vecs) < n {
		b.Vecs = make([]*Vec, n)
	}
	b.own, b.Vecs = b.own[:n], b.Vecs[:n]
	for i, t := range types {
		b.own[i] = Vec{T: t}
		b.Vecs[i] = &b.own[i]
	}
}

// Reset truncates all vectors.
func (b *Batch) Reset() {
	b.N = 0
	for _, v := range b.Vecs {
		v.Reset()
	}
}

// gather resets b to src's tuples at the positions idx.
func (b *Batch) gather(src *Batch, idx []int32) {
	b.Reset()
	for c, v := range b.Vecs {
		v.gather(src.Vecs[c], idx)
	}
	b.N = len(idx)
}

// Types returns the column types of the batch.
func (b *Batch) Types() []storage.ColumnType {
	out := make([]storage.ColumnType, len(b.Vecs))
	for i, v := range b.Vecs {
		out[i] = v.T
	}
	return out
}

// Operator is the pull-based iterator every physical operator implements.
// Next returns nil at end of stream, and a dense batch otherwise. The
// returned batch is valid until the following Next call and is read-only
// to the consumer: no operator writes into a batch it was handed. That is
// what lets a scan hand on page memory itself, lets an operator hand its
// child's batch on unchanged (Select does, when every tuple qualifies)
// and lets expressions read a column operand in place.
type Operator interface {
	// Open prepares the operator (registers scans, spawns workers) and
	// runs what must finish before its first batch: an Apply drains its
	// subquery, a HashJoin its build side.
	Open()
	// Next returns the next batch or nil.
	Next() *Batch
	// Close releases resources. Call it after Open; a second call is a
	// no-op, since the cancel path may close a plan its driver also closes.
	Close()
	// Schema returns the output column types.
	Schema() []storage.ColumnType
}

// Run runs op as the root of a plan: it opens op, hands each batch to
// each until each returns false or the batches end, and closes op. The
// vector buffers the plan took from its context's free list go back after
// the Close, once nothing reads the batches they held.
func Run(op Op, each func(*Batch) bool) {
	l := newLease(op)
	op.Open()
	defer l.release()
	defer op.Close()
	for b := op.Next(); b != nil && each(b); b = op.Next() {
	}
}

// Drain runs op to completion and returns the total tuple count (utility
// for tests and benchmarks).
func Drain(op Op) int64 {
	var n int64
	Run(op, func(b *Batch) bool {
		n += int64(b.N)
		return true
	})
	return n
}

// Collect runs op to completion and materializes its result in one batch
// (HashJoin's build side, Sort's input, tests).
func Collect(op Op) *Batch {
	out := NewBatch(op.Schema())
	Run(op, func(b *Batch) bool {
		for c, v := range out.Vecs {
			v.appendVec(b.Vecs[c])
		}
		out.N += b.N
		return true
	})
	return out
}

func typeCheck(want, got storage.ColumnType, what string) {
	if want != got {
		panic(fmt.Sprintf("exec: %s: type %v, want %v", what, got, want))
	}
}
