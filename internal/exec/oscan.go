package exec

import (
	"repro/internal/pdt"
	"repro/internal/storage"
)

// OScan implements the "Opportunistic CScans" idea sketched in §5 of the
// paper: out-of-order delivery without an Active Buffer Manager. The
// scan itself splits its range into sections and, each time it needs the
// next section, picks the not-yet-processed section with the most cached
// pages in the (passive) buffer pool. Scans thereby "attach" to each
// other automatically: a trailing scan gravitates toward the region a
// leading scan just paid the I/O for, with no centralized planning and
// no global state beyond the ordinary pool.
type OScan struct {
	Ctx    *Ctx
	Snap   *storage.Snapshot
	Cols   []int
	Ranges []RIDRange
	// PDT is the flattened delta layer; nil means RID == SID.
	PDT *pdt.PDT
	// SectionTuples is the reordering granularity (default 8192).
	SectionTuples int64

	types    []storage.ColumnType
	out      *Batch
	sections []section
	inner    *Scan // executes one section at a time, in-order within it
	opened   bool
}

type section struct {
	lo, hi int64 // SID range
	done   bool
}

// Schema implements Operator.
func (s *OScan) Schema() []storage.ColumnType {
	if s.types == nil {
		s.types = scanSchema(s.Snap, s.Cols)
	}
	return s.types
}

// Open implements Operator.
func (s *OScan) Open() {
	if s.opened {
		panic("exec: OScan reopened")
	}
	s.opened = true
	if s.Ctx.Pool == nil {
		panic("exec: OScan requires a buffer pool")
	}
	if s.SectionTuples <= 0 {
		s.SectionTuples = 8192
	}
	// Sections are defined in SID space so cached-page probing is direct.
	for _, r := range s.Ranges {
		lo, hi := r.Lo, r.Hi
		if s.PDT != nil && r.Lo < r.Hi {
			lo = s.PDT.RIDtoSID(r.Lo)
			hi = s.PDT.RIDtoSID(r.Hi-1) + 1
		}
		if hi > s.Snap.NumTuples() {
			hi = s.Snap.NumTuples()
		}
		// Sections end on the SectionTuples grid so concurrent OScans
		// probe the same units and can converge on them.
		for a := lo; a < hi; {
			b := (a/s.SectionTuples + 1) * s.SectionTuples
			if b > hi {
				b = hi
			}
			s.sections = append(s.sections, section{lo: a, hi: b})
			a = b
		}
	}
}

// Next implements Operator.
func (s *OScan) Next() *Batch {
	for {
		if s.Ctx.Query.Cancelled() {
			return nil // Close releases the inner section scan
		}
		if s.inner != nil {
			if b := s.inner.Next(); b != nil {
				return b
			}
			s.inner.Close()
			s.inner = nil
		}
		idx := s.pickSection()
		if idx < 0 {
			return nil
		}
		s.sections[idx].done = true
		s.inner = s.sectionScan(&s.sections[idx])
		s.inner.Open()
	}
}

// pickSection returns the undone section with the highest cached-byte
// fraction, breaking ties toward the lowest SID (sequential locality).
func (s *OScan) pickSection() int {
	best := -1
	bestScore := -1.0
	for i := range s.sections {
		sec := &s.sections[i]
		if sec.done {
			continue
		}
		score := s.cachedFraction(sec)
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// cachedFraction probes the pool for the section's pages across the
// scan's columns.
func (s *OScan) cachedFraction(sec *section) float64 {
	var total, cached int64
	for _, c := range s.Cols {
		for _, pg := range s.Snap.PagesInRange(c, sec.lo, sec.hi) {
			total += pg.Bytes
			if s.Ctx.Pool.Contains(pg) {
				cached += pg.Bytes
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(cached) / float64(total)
}

// sectionScan builds the in-order scan of one section, translating the
// section's SID window back to RID ranges exactly as CScan does.
func (s *OScan) sectionScan(sec *section) *Scan {
	ranges := clipToSIDs(s.Ranges, s.PDT, sec.lo, sec.hi)
	return &Scan{Ctx: s.Ctx, Snap: s.Snap, Cols: s.Cols, Ranges: ranges, PDT: s.PDT}
}

// Close implements Operator.
func (s *OScan) Close() {
	if s.inner != nil {
		s.inner.Close()
		s.inner = nil
	}
}

var _ Operator = (*OScan)(nil)
