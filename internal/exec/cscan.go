package exec

import (
	"fmt"

	"repro/internal/abm"
	"repro/internal/pdt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// CScan is the cooperative scan operator of Figure 2: it registers its
// data interest with the Active Buffer Manager up front and repeatedly
// asks for chunks, which arrive out of order. Out-of-order delivery
// interacts with PDT merging exactly as §2.1 describes: each chunk's SID
// range is translated to the widest RID window (SIDtoRIDlow at both
// boundaries tiles the RID space so no tuple is produced twice — the
// trimming requirement), intersected with the requested RID ranges, and
// the merge is re-initialized per chunk.
//
// With InOrder set the CScan demands ascending chunk delivery and becomes
// a drop-in replacement for Scan at chunk granularity (§2.3).
type CScan struct {
	Ctx    *Ctx
	Snap   *storage.Snapshot
	Cols   []int
	Ranges []RIDRange
	// PDT is the flattened delta layer for this scan's snapshot; nil
	// means RID == SID.
	PDT     *pdt.PDT
	InOrder bool
	// Pred, when non-nil, is the sargable value restriction the scan
	// prunes its ranges by at Open: the ABM is only told about the
	// surviving SID ranges, so pruned chunks gain no interest, are never
	// loaded, and never enter relevance counts.
	Pred *ScanPredicate

	types    []storage.ColumnType
	out      *Batch
	cs       *abm.CScan
	cur      *abm.Delivery
	segs     []pdt.Segment
	curSeg   int
	segOff   int64
	consumed int64
	opened   bool
	// pureInserts is set when the requested ranges touch no stable
	// tuples (everything comes from PDT-resident inserts): there is
	// nothing to load, so segments are emitted without ABM deliveries.
	pureInserts bool
	pureDone    bool
	// pace is this scan thread's fork of Ctx.Query, the pacing domain of
	// its CPU charges (the ABM's loader does the device reads).
	pace *QueryCtx
}

// Schema implements Operator.
func (s *CScan) Schema() []storage.ColumnType {
	if s.types == nil {
		s.types = make([]storage.ColumnType, len(s.Cols))
		for i, c := range s.Cols {
			s.types[i] = s.Snap.Table().Schema[c].Type
		}
	}
	return s.types
}

// Open implements Operator: registers the scan's SID ranges with the ABM.
func (s *CScan) Open() {
	if s.opened {
		panic("exec: CScan reopened")
	}
	s.opened = true
	if s.Ctx.ABM == nil {
		panic("exec: CScan requires an ABM in the context")
	}
	s.out = NewBatch(s.Schema())
	s.pace = s.Ctx.Query.Fork()
	s.Ranges = s.Ctx.pruneScanRanges(s.Snap, s.Ranges, s.Pred, s.PDT)
	total := s.Snap.NumTuples()
	if s.PDT != nil {
		total = s.PDT.NumTuples()
	}
	var sids []abm.SIDRange
	for _, r := range s.Ranges {
		if r.Lo < 0 || r.Hi > total || r.Lo > r.Hi {
			panic(fmt.Sprintf("exec: cscan range [%d,%d) out of [0,%d]", r.Lo, r.Hi, total))
		}
		if r.Lo == r.Hi {
			continue
		}
		lo, hi := r.Lo, r.Hi
		if s.PDT != nil {
			// RID range -> SID range of stable tuples the ABM must load.
			lo = s.PDT.RIDtoSID(r.Lo)
			hi = s.PDT.RIDtoSID(r.Hi-1) + 1
		}
		if hi > s.Snap.NumTuples() {
			hi = s.Snap.NumTuples()
		}
		if lo < hi {
			sids = append(sids, abm.SIDRange{Lo: lo, Hi: hi})
		}
	}
	if len(sids) == 0 {
		s.pureInserts = true
		return
	}
	s.cs = s.Ctx.ABM.RegisterCScan(s.Snap, s.Cols, sids, s.InOrder)
	// Bind the owning query before the first GetChunk: once the query is
	// cancelled the ABM scheduler stops loading chunks for this scan and
	// GetChunk returns immediately.
	s.cs.Bind(s.Ctx.Query)
}

// Next implements Operator.
func (s *CScan) Next() *Batch {
	if s.Ctx.Query.Cancelled() {
		return nil
	}
	s.out.Reset()
	for s.out.N < VectorSize {
		if s.pureInserts {
			if s.pureDone {
				break
			}
			if s.segs == nil {
				for _, r := range s.Ranges {
					if r.Lo < r.Hi && s.PDT != nil {
						s.segs = append(s.segs, s.PDT.SegmentsRID(r.Lo, r.Hi)...)
					}
				}
				s.curSeg, s.segOff = 0, 0
			}
			if s.curSeg >= len(s.segs) {
				s.pureDone = true
				break
			}
		} else if s.cur == nil {
			d, ok := s.cs.GetChunk()
			if !ok {
				break
			}
			s.cur = d
			s.segs = s.chunkSegments(d)
			s.curSeg, s.segOff = 0, 0
		}
		if s.curSeg >= len(s.segs) {
			s.cur.Release()
			s.cur = nil
			continue
		}
		seg := &s.segs[s.curSeg]
		want := int64(VectorSize - s.out.N)
		switch seg.Kind {
		case pdt.SegStable:
			lo := seg.Lo + s.segOff
			hi := lo + want
			if hi > seg.Hi {
				hi = seg.Hi
			}
			base := s.out.N
			for i, c := range s.Cols {
				readColumnDirect(s.Snap, c, lo, hi, s.out.Vecs[i])
			}
			if len(seg.Mods) > 0 {
				for sid := lo; sid < hi; sid++ {
					mods, ok := seg.Mods[sid]
					if !ok {
						continue
					}
					row := base + int(sid-lo)
					for i, c := range s.Cols {
						if v, ok := mods[c]; ok {
							setVec(s.out.Vecs[i], row, v)
						}
					}
				}
			}
			n := hi - lo
			s.out.N += int(n)
			s.segOff += n
			s.consumed += n
			if s.segOff >= seg.Hi-seg.Lo {
				s.curSeg++
				s.segOff = 0
			}
		case pdt.SegInsert:
			rows := seg.Rows[s.segOff:]
			if int64(len(rows)) > want {
				rows = rows[:want]
			}
			for _, row := range rows {
				for i, c := range s.Cols {
					appendVal(s.out.Vecs[i], row[c])
				}
			}
			s.out.N += len(rows)
			s.segOff += int64(len(rows))
			if s.segOff >= int64(len(seg.Rows)) {
				s.curSeg++
				s.segOff = 0
			}
		}
	}
	if s.out.N == 0 {
		return nil
	}
	s.Ctx.work(s.pace, s.Ctx.PerTupleCPU*sim.Duration(s.out.N))
	return s.out
}

// chunkSegments re-initializes the PDT merge for one delivered chunk: the
// chunk's SID range becomes a RID window, which is intersected with the
// requested RID ranges and planned into merge segments.
func (s *CScan) chunkSegments(d *abm.Delivery) []pdt.Segment {
	if s.PDT == nil {
		var out []pdt.Segment
		for _, r := range s.Ranges {
			lo, hi := maxI64(r.Lo, d.Lo), minI64(r.Hi, d.Hi)
			if lo < hi {
				out = append(out, pdt.Segment{Kind: pdt.SegStable, Lo: lo, Hi: hi})
			}
		}
		return out
	}
	// SIDtoRIDlow at both boundaries tiles RID space across chunks: no
	// tuple is generated twice (§2.1's trimming, by construction).
	wLo := s.PDT.SIDtoRIDlow(d.Lo)
	wHi := s.PDT.SIDtoRIDlow(d.Hi)
	var out []pdt.Segment
	for _, r := range s.Ranges {
		lo, hi := maxI64(r.Lo, wLo), minI64(r.Hi, wHi)
		if lo < hi {
			out = append(out, s.PDT.SegmentsRID(lo, hi)...)
		}
	}
	return out
}

// Close implements Operator. Idempotent: the pinned delivery and the
// ABM registration are released exactly once, so a cancelled query's
// chunks become evictable as soon as the first Close runs.
func (s *CScan) Close() {
	if s.cur != nil {
		s.cur.Release()
		s.cur = nil
	}
	if s.cs != nil {
		s.cs.Unregister()
		s.cs = nil
	}
	s.pace.Flush()
}

// readColumnDirect copies values from (ABM-resident, pinned) pages.
func readColumnDirect(snap *storage.Snapshot, col int, lo, hi int64, out *Vec) {
	for _, pg := range snap.PagesInRange(col, lo, hi) {
		a := int64(0)
		if lo > pg.FirstSID {
			a = lo - pg.FirstSID
		}
		b := int64(pg.Tuples)
		if hi < pg.LastSID() {
			b = hi - pg.FirstSID
		}
		switch out.T {
		case storage.Int64:
			out.I64 = append(out.I64, pg.I64[a:b]...)
		case storage.Float64:
			out.F64 = append(out.F64, pg.F64[a:b]...)
		case storage.String:
			out.Str = append(out.Str, pg.Str[a:b]...)
		}
	}
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
