package exec

import (
	"fmt"
	"sort"

	"repro/internal/minmax"
	"repro/internal/pdt"
	"repro/internal/storage"
)

// This file is where the executor interprets a PDT merge plan — the
// pdt.Segment lists that say which stable runs and which PDT-resident
// inserts make up a RID range: planning them for a scan's ranges,
// emitting vectors from them (segCursor, the merge loop of every scan
// operator), and pruning them through a zone map (pruneDeltaRange).

// scanSchema is the output schema of a scan of cols.
func scanSchema(snap *storage.Snapshot, cols []int) []storage.ColumnType {
	types := make([]storage.ColumnType, len(cols))
	for i, c := range cols {
		types[i] = snap.Table().Schema[c].Type
	}
	return types
}

// checkRanges panics unless every range lies inside the scanned image:
// the stable table, or its merge with deltas.
func checkRanges(op string, snap *storage.Snapshot, deltas *pdt.PDT, ranges []RIDRange) {
	total := snap.NumTuples()
	if deltas != nil {
		total = deltas.NumTuples()
	}
	for _, r := range ranges {
		if r.Lo < 0 || r.Hi > total || r.Lo > r.Hi {
			panic(fmt.Sprintf("exec: %s range [%d,%d) out of [0,%d]", op, r.Lo, r.Hi, total))
		}
	}
}

// segmentsOf plans the merge of one RID range: a single stable run when
// there are no deltas (RID == SID).
func segmentsOf(deltas *pdt.PDT, r RIDRange) []pdt.Segment {
	if r.Lo >= r.Hi {
		return nil
	}
	if deltas == nil {
		return []pdt.Segment{{Kind: pdt.SegStable, Lo: r.Lo, Hi: r.Hi}}
	}
	return deltas.SegmentsRID(r.Lo, r.Hi)
}

// clipToSIDs intersects ranges with the RID window a stable SID range
// [sidLo,sidHi) maps to — how an out-of-order scan (CScan, per chunk)
// re-initializes its merge. SIDtoRIDlow at both boundaries tiles RID
// space across windows: no tuple is generated twice (§2.1's trimming, by
// construction).
func clipToSIDs(ranges []RIDRange, deltas *pdt.PDT, sidLo, sidHi int64) []RIDRange {
	wLo, wHi := sidLo, sidHi
	if deltas != nil {
		wLo, wHi = deltas.SIDtoRIDlow(sidLo), deltas.SIDtoRIDlow(sidHi)
	}
	var out []RIDRange
	for _, r := range ranges {
		if lo, hi := max(r.Lo, wLo), min(r.Hi, wHi); lo < hi {
			out = append(out, RIDRange{Lo: lo, Hi: hi})
		}
	}
	return out
}

// segCursor is the one PDT merge loop: it walks a segment list and emits
// it a vector at a time, reading stable runs through read — the only
// thing the scan operators differ in (Scan faults pages through the pool
// with read-ahead, CScan reads ABM-resident pages) — applying per-SID
// modifications on top, and appending PDT-resident inserts.
//
// A stable read that starts a vector, lies inside one page and belongs to
// a run without modifications is not copied: the vector takes the page's
// memory (page), its one-byte codes included. That is legal because page
// slices are immutable and never reused — pool frames and ABM chunks only
// account for residency — so the pins stay exactly where they are. Any
// other read copies into the scan's own buffer for the column (owned),
// taken on the column's first copy from the plan root's lease (the
// context's free list) and kept until that root closes: a scan whose
// every vector aliases a page takes none. A copy keeps a String vector's
// codes while every page it copies from has them; a modification or an
// inserted row drops them.
type segCursor struct {
	cols  []int
	read  colReader
	own   []colBuf // per column
	lease *lease   // where a column's own buffer comes from

	segs []pdt.Segment
	seg  int   // current segment
	off  int64 // tuples of it already produced
}

// colReader appends the values of column cols[i] for SIDs [lo,hi) to
// out, handing each page to segCursor.page.
type colReader func(i int, lo, hi int64, out *Vec) error

// colBuf is a scan's own buffer for one column.
type colBuf struct {
	buf   Vec  // empty; with room for a vector once the column has copied
	alias bool // the column's vector is a page's memory instead
}

// newSegCursor points out's vectors at the scan's own buffers, which are
// not taken yet.
func newSegCursor(out *Batch, cols []int, read colReader, l *lease) segCursor {
	c := segCursor{cols: cols, read: read, own: make([]colBuf, len(out.Vecs)), lease: l}
	for i, v := range out.Vecs {
		c.own[i].buf = *v
	}
	return c
}

// rewind empties out, pointing every vector back at its own buffer.
func (c *segCursor) rewind(out *Batch) {
	out.N = 0
	for i, v := range out.Vecs {
		*v, c.own[i].alias = c.own[i].buf, false
	}
}

// owned makes column i's vector v the scan's own buffer, so that it can
// be appended to and written: a page's memory is copied there, and the
// buffer is taken if this is the column's first copy.
func (c *segCursor) owned(i int, v *Vec) {
	if o := &c.own[i]; o.alias || v.Len() == 0 {
		if o.buf.empty() {
			o.buf = c.lease.take(o.buf.T)
		}
		buf := o.buf
		buf.appendVec(v)
		*v, o.alias = buf, false
	}
}

// reset points the cursor at the start of a new segment list.
func (c *segCursor) reset(segs []pdt.Segment) { c.segs, c.seg, c.off = segs, 0, 0 }

// done reports whether the segment list is exhausted.
func (c *segCursor) done() bool { return c.seg >= len(c.segs) }

// fill appends tuples to out until it holds a full vector or the segment
// list is exhausted, and returns how many of them were stable tuples
// (the PBM progress unit). A read error — the owning query died at a
// blocking pool wait — ends it early; the partial batch is the caller's
// to discard.
func (c *segCursor) fill(out *Batch) (stable int64, err error) {
	for out.N < VectorSize && !c.done() {
		seg := &c.segs[c.seg]
		want := int64(VectorSize - out.N)
		var n, segLen int64
		switch seg.Kind {
		case pdt.SegStable:
			lo := seg.Lo + c.off
			hi := min(lo+want, seg.Hi)
			for i := range c.cols {
				if err := c.read(i, lo, hi, out.Vecs[i]); err != nil {
					return stable, err
				}
			}
			// Apply per-SID modifications.
			if len(seg.Mods) > 0 {
				for sid := lo; sid < hi; sid++ {
					mods, ok := seg.Mods[sid]
					if !ok {
						continue
					}
					row := out.N + int(sid-lo)
					for i, col := range c.cols {
						if v, ok := mods[col]; ok {
							setVec(out.Vecs[i], row, v)
						}
					}
				}
			}
			n, segLen = hi-lo, seg.Hi-seg.Lo
			stable += n
		case pdt.SegInsert:
			rows := seg.Rows[c.off:]
			if int64(len(rows)) > want {
				rows = rows[:want]
			}
			for i, v := range out.Vecs {
				c.owned(i, v)
			}
			for _, row := range rows {
				for i, col := range c.cols {
					appendVal(out.Vecs[i], row[col])
				}
			}
			n, segLen = int64(len(rows)), int64(len(seg.Rows))
		}
		out.N += int(n)
		c.off += n
		if c.off >= segLen {
			c.seg++
			c.off = 0
		}
	}
	return stable, nil
}

// page appends pg's values for SIDs [lo,hi), clipped to the page, to
// column i's vector out. When out is empty, [lo,hi) lies inside pg and
// the current run has no modifications to write over it, out becomes
// pg's memory, capped at its length so that no append can reach the page.
func (c *segCursor) page(i int, pg *storage.Page, lo, hi int64, out *Vec) {
	a, b := lo-pg.FirstSID, hi-pg.FirstSID
	if a >= 0 && b <= int64(pg.Tuples) && out.Len() == 0 && len(c.segs[c.seg].Mods) == 0 {
		switch out.T {
		case storage.Int64:
			out.I64 = pg.I64[a:b:b]
		case storage.Float64:
			out.F64 = pg.F64[a:b:b]
		case storage.String:
			out.Str = pg.Str[a:b:b]
			if out.Code = nil; pg.Code != nil {
				out.Code = pg.Code[a:b:b]
			}
		}
		c.own[i].alias = true
		return
	}
	c.owned(i, out)
	a, b = max(a, 0), min(b, int64(pg.Tuples))
	switch out.T {
	case storage.Int64:
		out.I64 = append(out.I64, pg.I64[a:b]...)
	case storage.Float64:
		out.F64 = append(out.F64, pg.F64[a:b]...)
	case storage.String:
		out.Code = appendCodes(out.Code, pg.Code, a, b)
		out.Str = append(out.Str, pg.Str[a:b]...)
	}
}

func setVec(v *Vec, i int, val pdt.Value) {
	switch v.T {
	case storage.Int64:
		v.I64[i] = val.I64
	case storage.Float64:
		v.F64[i] = val.F64
	case storage.String:
		v.Str[i] = val.Str
		v.Code = nil
	}
}

func appendVal(v *Vec, val pdt.Value) {
	switch v.T {
	case storage.Int64:
		v.I64 = append(v.I64, val.I64)
	case storage.Float64:
		v.F64 = append(v.F64, val.F64)
	case storage.String:
		v.Str = append(v.Str, val.Str)
		v.Code = nil
	}
}

// pruneDeltaRange prunes one requested RID range of a merged
// (stable+PDT) image, given as its merge segments starting at RID lo,
// returning surviving RID subranges in order.
func pruneDeltaRange(ix *minmax.Index, lo int64, segs []pdt.Segment, pred *ScanPredicate) []RIDRange {
	var kept []RIDRange
	rid := lo
	for _, seg := range segs {
		switch seg.Kind {
		case pdt.SegStable:
			// Prune the stable SID run through the index, then force back
			// any tuple whose predicate-column modification moved it into
			// range: the block bounds were recorded before the mod.
			sids := ix.PruneRange(seg.Lo, seg.Hi, pred.Lo, pred.Hi)
			for sid, mods := range seg.Mods {
				v, ok := mods[pred.Col]
				if !ok || v.T != storage.Int64 || v.I64 < pred.Lo || v.I64 > pred.Hi {
					continue
				}
				sids = append(sids, minmax.Range{Lo: sid, Hi: sid + 1})
			}
			sort.Slice(sids, func(i, j int) bool { return sids[i].Lo < sids[j].Lo })
			base := rid - seg.Lo // SID -> RID offset within this run
			for _, sr := range sids {
				kept = appendCoalesced(kept, RIDRange{Lo: base + sr.Lo, Hi: base + sr.Hi})
			}
			rid += seg.Hi - seg.Lo
		case pdt.SegInsert:
			// Inserted rows live in the PDT, not under the zone map: keep
			// the run iff any row can match the predicate.
			match := false
			for _, row := range seg.Rows {
				if v := row[pred.Col]; v.T == storage.Int64 && v.I64 >= pred.Lo && v.I64 <= pred.Hi {
					match = true
					break
				}
			}
			if match {
				kept = appendCoalesced(kept, RIDRange{Lo: rid, Hi: rid + int64(len(seg.Rows))})
			}
			rid += int64(len(seg.Rows))
		}
	}
	return kept
}
