package exec

import (
	"repro/internal/pbm"
	"repro/internal/pdt"
	"repro/internal/storage"
)

// RIDRange is a half-open range of row positions in a table image.
type RIDRange struct{ Lo, Hi int64 }

// PartitionRange splits [lo,hi) into n near-equal subranges per Equation 1
// of the paper (static partitioning for intra-query parallelism).
func PartitionRange(lo, hi int64, n int) []RIDRange {
	out := make([]RIDRange, 0, n)
	span := hi - lo
	for i := 0; i < n; i++ {
		a := lo + span*int64(i)/int64(n)
		b := lo + span*int64(i+1)/int64(n)
		out = append(out, RIDRange{a, b})
	}
	return out
}

// Scan is the traditional in-order scan operator of Figure 1: it issues
// its own page requests through the buffer pool (with per-column
// read-ahead), merges PDT updates on the fly, and — when the pool's
// policy is PBM — registers its future accesses and reports its position
// as it progresses (Figure 3).
type Scan struct {
	Ctx    *Ctx
	Snap   *storage.Snapshot
	Cols   []int
	Ranges []RIDRange
	// PDT is the flattened delta layer for this scan's snapshot; nil
	// means RID == SID (no pending updates).
	PDT *pdt.PDT
	// Pred, when non-nil, restricts the scan to the tuples whose value in
	// a column it reads lies in the window: it prunes its ranges by it at
	// Open (zone-map data skipping) and filters every vector by it.
	Pred *ScanPredicate

	scanCore
	plans   []rangePlan // one per range, in order
	planned int         // plans[planned:] are not started
	sidEnd  int64       // the current plan's read-ahead clip
	pbmID   pbm.ScanID
	pbmOn   bool
	closed  bool
}

// rangePlan is the merge plan of one RID range.
type rangePlan struct {
	segs   []pdt.Segment
	sidEnd int64 // upper SID bound of the range (read-ahead clip)
}

// Schema implements Operator.
func (s *Scan) Schema() []storage.ColumnType { return s.schema(s.Snap, s.Cols) }

// Open implements Operator.
func (s *Scan) Open() {
	s.Ranges = s.open("scan", s.Ctx, s.Snap, s.Cols, s.Ranges, s.PDT, s.Pred, s.readCol)
	for _, r := range s.Ranges {
		plan := rangePlan{segs: segmentsOf(s.PDT, r)}
		for _, seg := range plan.segs {
			if seg.Kind == pdt.SegStable {
				plan.sidEnd = max(plan.sidEnd, seg.Hi)
				s.Ctx.Heat.count(s.Snap, s.Cols, seg.Lo, seg.Hi)
			}
		}
		s.plans = append(s.plans, plan)
	}
	if s.Ctx.PBM != nil {
		pagesPerCol := make([][]*storage.Page, 0, len(s.Cols))
		for _, c := range s.Cols {
			var pages []*storage.Page
			for _, plan := range s.plans {
				for _, seg := range plan.segs {
					if seg.Kind != pdt.SegStable {
						continue
					}
					pages = append(pages, s.Snap.PagesInRange(c, seg.Lo, seg.Hi)...)
				}
			}
			pagesPerCol = append(pagesPerCol, pages)
		}
		s.pbmID = s.Ctx.PBM.RegisterScan(pagesPerCol)
		s.pbmOn = true
	}
}

// Next implements Operator.
func (s *Scan) Next() *Batch { return s.next(s.Ctx, s.advance, s.report) }

// advance points the merge at the next range's plan; false when every
// range is started.
func (s *Scan) advance() bool {
	if s.planned >= len(s.plans) {
		return false
	}
	s.merge.reset(s.plans[s.planned].segs)
	s.sidEnd = s.plans[s.planned].sidEnd
	s.planned++
	return true
}

// report tells the PBM, if the scan registered with it, how far the
// scan has come.
func (s *Scan) report(consumed int64) {
	if s.pbmOn {
		s.Ctx.PBM.ReportScanPosition(s.pbmID, consumed)
	}
}

// Close implements Operator. Idempotent: the cancel path may close a
// plan that its driver also closes.
func (s *Scan) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.pbmOn {
		s.Ctx.PBM.UnregisterScan(s.pbmID)
		s.pbmOn = false
	}
	s.pace.Flush()
}

// readCol appends the values of column Cols[i] for SIDs [lo,hi) to out,
// faulting pages via the pool with read-ahead up to the current range's
// end. It returns buffer.ErrCancelled when the owning query died at a
// blocking reservation.
//
// Pages are pinned only while they are read, so a scan's pinned working
// set stays minimal and tiny pools (the paper's 10% configurations) never
// overcommit; under memory pressure a page evicted between batches is
// simply faulted again — which is precisely the thrashing the evaluated
// policies differ on. A vector may keep aliasing a page after its unpin:
// residency is what the pool models, and page memory never changes.
func (s *Scan) readCol(i int, lo, hi int64, out *Vec) error {
	col, pool := s.Cols[i], s.Ctx.Pool
	for _, pg := range s.Snap.PagesInRange(col, lo, hi) {
		f, err := pool.GetIfResident(s.pace, pg)
		if f == nil && err == nil {
			ra := s.Ctx.ReadAheadTuples
			if ra <= 0 {
				ra = int64(pg.Tuples)
			}
			run := s.Snap.PagesInRange(col, pg.FirstSID, min(pg.FirstSID+ra, s.sidEnd))
			if len(run) == 0 {
				run = []*storage.Page{pg}
			}
			f, err = pool.GetRunOwner(s.pace, run)
		}
		if err != nil {
			return err
		}
		s.merge.page(i, pg, lo, hi, out)
		pool.Unpin(f)
	}
	return nil
}
