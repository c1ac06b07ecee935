package exec

import (
	"repro/internal/abm"
	"repro/internal/pdt"
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
// A plan that needs physical order reads through Scan instead: none here
// does, so the CScan has no in-order mode.
type CScan struct {
	Ctx    *Ctx
	Snap   *storage.Snapshot
	Cols   []int
	Ranges []RIDRange
	// PDT is the flattened delta layer for this scan's snapshot; nil
	// means RID == SID.
	PDT *pdt.PDT
	// Pred, when non-nil, restricts the scan to the tuples whose value in
	// a column it reads lies in the window: it prunes its ranges by it at
	// Open, so the ABM is only told about the surviving SID ranges —
	// pruned chunks gain no interest, are never loaded, and never enter
	// relevance counts — and filters every vector by it.
	Pred *ScanPredicate

	scanCore
	// cs is the ABM registration; nil when the requested ranges touch no
	// stable tuples (everything comes from PDT-resident inserts): there
	// is nothing to load, so the ranges' segments are emitted, once,
	// without ABM deliveries.
	cs         *abm.CScan
	cur        *abm.Delivery // the pinned chunk merge is emitting, if any
	pureLoaded bool
}

// Schema implements Operator.
func (s *CScan) Schema() []storage.ColumnType { return s.schema(s.Snap, s.Cols) }

// Open implements Operator: registers the scan's SID ranges with the ABM.
func (s *CScan) Open() {
	if s.Ctx.ABM == nil {
		panic("exec: CScan requires an ABM in the context")
	}
	s.Ranges = s.open("cscan", s.Ctx, s.Snap, s.Cols, s.Ranges, s.PDT, s.Pred, s.readCol)
	var sids []abm.SIDRange
	for _, r := range s.Ranges {
		if r.Lo == r.Hi {
			continue
		}
		lo, hi := r.Lo, r.Hi
		if s.PDT != nil {
			// RID range -> SID range of stable tuples the ABM must load.
			lo = s.PDT.RIDtoSID(r.Lo)
			hi = s.PDT.RIDtoSID(r.Hi-1) + 1
		}
		hi = min(hi, s.Snap.NumTuples())
		if lo < hi {
			sids = append(sids, abm.SIDRange{Lo: lo, Hi: hi})
			s.Ctx.Heat.count(s.Snap, s.Cols, lo, hi)
		}
	}
	if len(sids) == 0 {
		return
	}
	s.cs = s.Ctx.ABM.RegisterCScan(s.Snap, s.Cols, sids, false)
	// Bind the owning query before the first GetChunk: once the query is
	// cancelled the ABM scheduler stops loading chunks for this scan and
	// GetChunk returns immediately. The handle bound is the scan thread's
	// pacing fork, so the time GetChunk parks is blocked time, not work.
	s.cs.Bind(s.pace)
}

// Next implements Operator.
func (s *CScan) Next() *Batch { return s.next(s.Ctx, s.nextSegments, nil) }

// nextSegments releases the chunk the merge has finished with and
// re-initializes the merge for the next delivered one: the chunk's SID
// range becomes a RID window, which is intersected with the requested
// RID ranges and planned into merge segments. It reports false when
// nothing is left to deliver.
func (s *CScan) nextSegments() bool {
	var ranges []RIDRange
	if s.cs == nil {
		if s.pureLoaded {
			return false
		}
		s.pureLoaded = true
		ranges = s.Ranges
	} else {
		if s.cur != nil {
			s.cur.Release()
			s.cur = nil
		}
		d, ok := s.cs.GetChunk()
		if !ok {
			return false
		}
		s.cur = d
		ranges = clipToSIDs(s.Ranges, s.PDT, d.Lo, d.Hi)
	}
	var segs []pdt.Segment
	for _, r := range ranges {
		segs = append(segs, segmentsOf(s.PDT, r)...)
	}
	s.merge.reset(segs)
	return true
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

// readCol reads the values of column Cols[i] for SIDs [lo,hi) from the
// delivered chunk's (ABM-resident, pinned) pages.
func (s *CScan) readCol(i int, lo, hi int64, out *Vec) error {
	for _, pg := range s.Snap.PagesInRange(s.Cols[i], lo, hi) {
		s.merge.page(i, pg, lo, hi, out)
	}
	return nil
}
