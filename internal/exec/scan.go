package exec

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/pbm"
	"repro/internal/pdt"
	"repro/internal/sim"
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
	// Pred, when non-nil, is the sargable value restriction the scan
	// prunes its ranges by at Open (zone-map data skipping). Advisory:
	// the exact filter still runs above the scan.
	Pred *ScanPredicate

	types    []storage.ColumnType
	out      *Batch
	plans    []rangePlan
	curPlan  int
	curSeg   int
	segOff   int64 // tuples of the current segment already produced
	readers  []*colReader
	pbmID    pbm.ScanID
	pbmOn    bool
	consumed int64 // stable tuples consumed (PBM progress unit)
	opened   bool
	closed   bool
	// pace is this scan thread's fork of Ctx.Query: the owner tag of its
	// pool requests and the pacing domain its CPU charges and device
	// waits share (nil when the plan has no lifecycle handle).
	pace *QueryCtx
}

// rangePlan is the merge plan of one RID range.
type rangePlan struct {
	segs   []pdt.Segment
	sidEnd int64 // upper SID bound of the range (read-ahead clip)
}

// Schema implements Operator.
func (s *Scan) Schema() []storage.ColumnType {
	if s.types == nil {
		s.types = make([]storage.ColumnType, len(s.Cols))
		for i, c := range s.Cols {
			s.types[i] = s.Snap.Table().Schema[c].Type
		}
	}
	return s.types
}

// Open implements Operator.
func (s *Scan) Open() {
	if s.opened {
		panic("exec: Scan reopened")
	}
	s.opened = true
	s.out = NewBatch(s.Schema())
	s.pace = s.Ctx.Query.Fork()
	s.Ranges = s.Ctx.pruneScanRanges(s.Snap, s.Ranges, s.Pred, s.PDT)
	total := s.Snap.NumTuples()
	if s.PDT != nil {
		total = s.PDT.NumTuples()
	}
	for _, r := range s.Ranges {
		if r.Lo < 0 || r.Hi > total || r.Lo > r.Hi {
			panic(fmt.Sprintf("exec: scan range [%d,%d) out of [0,%d]", r.Lo, r.Hi, total))
		}
		var plan rangePlan
		if s.PDT == nil {
			if r.Lo < r.Hi {
				plan.segs = []pdt.Segment{{Kind: pdt.SegStable, Lo: r.Lo, Hi: r.Hi}}
			}
		} else {
			plan.segs = s.PDT.SegmentsRID(r.Lo, r.Hi)
		}
		for _, seg := range plan.segs {
			if seg.Kind == pdt.SegStable && seg.Hi > plan.sidEnd {
				plan.sidEnd = seg.Hi
			}
		}
		s.plans = append(s.plans, plan)
	}
	s.readers = make([]*colReader, len(s.Cols))
	for i, c := range s.Cols {
		s.readers[i] = &colReader{scan: s, col: c}
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
func (s *Scan) Next() *Batch {
	if s.Ctx.Query.Cancelled() {
		return nil
	}
	s.out.Reset()
	for s.out.N < VectorSize {
		if s.curPlan >= len(s.plans) {
			break
		}
		plan := &s.plans[s.curPlan]
		if s.curSeg >= len(plan.segs) {
			s.curPlan++
			s.curSeg, s.segOff = 0, 0
			continue
		}
		seg := &plan.segs[s.curSeg]
		want := int64(VectorSize - s.out.N)
		switch seg.Kind {
		case pdt.SegStable:
			lo := seg.Lo + s.segOff
			hi := lo + want
			if hi > seg.Hi {
				hi = seg.Hi
			}
			base := s.out.N
			for i, rd := range s.readers {
				if err := rd.read(lo, hi, plan.sidEnd, s.out.Vecs[i]); err != nil {
					// Cancelled at a blocking pool wait: the partial batch
					// is discarded — nobody will consume it.
					return nil
				}
			}
			// Apply per-SID modifications.
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
	if s.pbmOn {
		s.Ctx.PBM.ReportScanPosition(s.pbmID, s.consumed)
		// §5 attach&throttle: pause briefly when PBM advises that slowing
		// down lets trailing scans reuse our pages before eviction.
		if s.Ctx.PBM.ThrottleEnabled() && s.Ctx.PBM.ShouldThrottle(s.pbmID) {
			s.Ctx.RT.Sleep(s.Ctx.PBM.ThrottlePause())
		}
	}
	return s.out
}

// Close implements Operator. Idempotent: the cancel path may close a
// plan that its driver also closes.
func (s *Scan) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, rd := range s.readers {
		rd.release()
	}
	if s.pbmOn {
		s.Ctx.PBM.UnregisterScan(s.pbmID)
		s.pbmOn = false
	}
	s.pace.Flush()
}

func setVec(v *Vec, i int, val pdt.Value) {
	switch v.T {
	case storage.Int64:
		v.I64[i] = val.I64
	case storage.Float64:
		v.F64[i] = val.F64
	case storage.String:
		v.Str[i] = val.Str
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
	}
}

// colReader reads one column through the buffer pool. Pages are pinned
// only for the duration of the copy, so a scan's pinned working set stays
// minimal and tiny pools (the paper's 10% configurations) never
// overcommit; under memory pressure a page evicted between batches is
// simply faulted again — which is precisely the thrashing the evaluated
// policies differ on.
type colReader struct {
	scan *Scan
	col  int
}

func (r *colReader) release() {}

// read appends column values for SIDs [lo,hi) to out, faulting pages via
// the pool with read-ahead up to sidEnd. It returns buffer.ErrCancelled
// when the owning query died at a blocking reservation.
func (r *colReader) read(lo, hi, sidEnd int64, out *Vec) error {
	snap := r.scan.Snap
	pool := r.scan.Ctx.Pool
	owner := r.scan.pace
	for _, pg := range snap.PagesInRange(r.col, lo, hi) {
		var f *buffer.Frame
		var err error
		if pool.Contains(pg) {
			f, err = pool.GetOwner(owner, pg)
		} else {
			ra := r.scan.Ctx.ReadAheadTuples
			if ra <= 0 {
				ra = int64(pg.Tuples)
			}
			// Device-aware sizing: a striped array wants the batch to cover
			// a full stripe row so every spindle gets a piece.
			if n := r.scan.Ctx.StripeRowBlocks; n > 0 {
				if minRA := int64(n) * int64(pg.Tuples); ra < minRA {
					ra = minRA
				}
			}
			raHi := pg.FirstSID + ra
			if raHi > sidEnd {
				raHi = sidEnd
			}
			run := snap.PagesInRange(r.col, pg.FirstSID, raHi)
			if len(run) == 0 {
				run = []*storage.Page{pg}
			}
			f, err = pool.GetRunOwner(owner, run)
		}
		if err != nil {
			return err
		}
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
		pool.Unpin(f)
	}
	return nil
}
