// Package minmax implements Vectorwise's automatic MinMax indexes, which
// §2.3 of the paper cites as one source of fine-grained scan ranges:
// per-block minimum/maximum summaries of a column that let the planner
// shrink a scan's tuple ranges before it ever reaches the buffer
// manager. The paper notes such restricted range scans are a reason the
// traditional Scan operator must coexist with CScans (many small ranges
// are finer than a chunk).
package minmax

import (
	"repro/internal/storage"
)

// BlockTuples is the default summarization granularity.
const BlockTuples = 4096

// Range is a half-open surviving tuple range. It mirrors exec.RIDRange
// structurally but lives here so the executor can depend on this package
// (for predicate pushdown) without an import cycle.
type Range struct{ Lo, Hi int64 }

// Index summarizes one int64 column of one snapshot.
type Index struct {
	col    int
	block  int64
	mins   []int64
	maxs   []int64
	tuples int64
}

// Build summarizes blocks of blockTuples via the snapshot's storage-level
// BlockMinMax (no buffer pool: in Vectorwise MinMax indexes are
// maintained during load).
func Build(snap *storage.Snapshot, col int, blockTuples int64) *Index {
	if blockTuples <= 0 {
		blockTuples = BlockTuples
	}
	idx := &Index{col: col, block: blockTuples, tuples: snap.NumTuples()}
	idx.mins, idx.maxs = snap.BlockMinMax(col, blockTuples)
	return idx
}

// Blocks returns the number of summarized blocks.
func (ix *Index) Blocks() int { return len(ix.mins) }

// Col returns the summarized column's index in the table schema.
func (ix *Index) Col() int { return ix.col }

// BlockTuples returns the summarization granularity in tuples.
func (ix *Index) BlockTuples() int64 { return ix.block }

// ValueBounds returns the overall column minimum and maximum; ok is
// false for an empty index (no summarized tuples).
func (ix *Index) ValueBounds() (vmin, vmax int64, ok bool) {
	if len(ix.mins) == 0 {
		return 0, 0, false
	}
	vmin, vmax = ix.mins[0], ix.maxs[0]
	for b := 1; b < len(ix.mins); b++ {
		if ix.mins[b] < vmin {
			vmin = ix.mins[b]
		}
		if ix.maxs[b] > vmax {
			vmax = ix.maxs[b]
		}
	}
	return vmin, vmax, true
}

// PruneRange restricts [lo,hi) to the blocks that may contain values in
// [vmin, vmax], returning the (possibly multiple) surviving tuple
// ranges. Ranges are clipped to the input range and coalesced. An
// inverted value interval (vmin > vmax) matches nothing and prunes
// everything.
func (ix *Index) PruneRange(lo, hi int64, vmin, vmax int64) []Range {
	if vmin > vmax {
		return nil
	}
	if lo < 0 {
		lo = 0
	}
	if hi > ix.tuples {
		hi = ix.tuples
	}
	if lo >= hi {
		return nil
	}
	first := lo / ix.block
	last := (hi - 1) / ix.block
	var out []Range
	for b := first; b <= last; b++ {
		if ix.mins[b] > vmax || ix.maxs[b] < vmin {
			continue // block cannot match
		}
		blo := b * ix.block
		bhi := blo + ix.block
		if blo < lo {
			blo = lo
		}
		if bhi > hi {
			bhi = hi
		}
		if n := len(out); n > 0 && out[n-1].Hi == blo {
			out[n-1].Hi = bhi // coalesce adjacent surviving blocks
			continue
		}
		out = append(out, Range{Lo: blo, Hi: bhi})
	}
	return out
}

// CountRange returns the number of tuples PruneRange(lo,hi,vmin,vmax)
// would keep — the numerator of a skip-aware scan-cost estimate, without
// materializing the ranges.
func (ix *Index) CountRange(lo, hi int64, vmin, vmax int64) int64 {
	var n int64
	for _, r := range ix.PruneRange(lo, hi, vmin, vmax) {
		n += r.Hi - r.Lo
	}
	return n
}
