package exec

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/minmax"
	"repro/internal/pdt"
	"repro/internal/storage"
)

// ScanPredicate is a value restriction on one stored int64 column the
// scan reads: the scan returns only tuples whose column value lies in
// [Lo, Hi]. It is the scan's whole restriction, applied in two steps.
// At Open the scan consults the context's zone maps to prune
// provably-excluded tuple ranges before any I/O is scheduled — the ABM
// gains no interest in pruned chunks, the PBM never registers their
// pages, and read-ahead batches split around the pruned runs. Pruning is
// conservative (block granularity), so every vector the scan reads is
// then filtered exactly (scanCore.next).
type ScanPredicate struct {
	// Col is the storage column index in the table schema (not the
	// position within Scan.Cols); the scan must read it.
	Col int
	// Lo and Hi are the inclusive value bounds.
	Lo, Hi int64
}

// zoneKey identifies one summarized column of one snapshot.
type zoneKey struct {
	snap *storage.Snapshot
	col  int
}

// ZoneMaps is the registry of per-(snapshot, column) MinMax indexes a
// context's scans prune through. Indexes are built once at load
// (storage-level reads, no modeled I/O) and are immutable afterwards;
// the mutex only guards registry mutation so concurrent real-mode scans
// can look up safely.
type ZoneMaps struct {
	mu  sync.RWMutex
	idx map[zoneKey]*minmax.Index
}

// NewZoneMaps creates an empty registry.
func NewZoneMaps() *ZoneMaps {
	return &ZoneMaps{idx: make(map[zoneKey]*minmax.Index)}
}

// Build summarizes snap's int64 column col at blockTuples granularity
// (0 = minmax.BlockTuples) and registers the index, returning it.
// Rebuilding an already-registered key replaces the index.
func (z *ZoneMaps) Build(snap *storage.Snapshot, col int, blockTuples int64) *minmax.Index {
	ix := minmax.Build(snap, col, blockTuples)
	z.mu.Lock()
	z.idx[zoneKey{snap, col}] = ix
	z.mu.Unlock()
	return ix
}

// Lookup returns the registered index for (snap, col), or nil.
func (z *ZoneMaps) Lookup(snap *storage.Snapshot, col int) *minmax.Index {
	z.mu.RLock()
	ix := z.idx[zoneKey{snap, col}]
	z.mu.RUnlock()
	return ix
}

// Drop evicts every index summarizing snap. Checkpoints call it as the
// snapshot retires — the registry is keyed by snapshot pointer, so a
// long-lived server would otherwise leak one index set per checkpoint.
// It returns the column indexes that were registered so the caller can
// rebuild them over the replacement snapshot.
func (z *ZoneMaps) Drop(snap *storage.Snapshot) []int {
	z.mu.Lock()
	defer z.mu.Unlock()
	var cols []int
	for k := range z.idx {
		if k.snap == snap {
			cols = append(cols, k.col)
			delete(z.idx, k)
		}
	}
	sort.Ints(cols)
	return cols
}

// Len returns the number of registered indexes (tests and leak checks).
func (z *ZoneMaps) Len() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return len(z.idx)
}

// SkipStats accumulates zone-map pruning counters across a run's scans
// (atomics: real-mode scans run on concurrent goroutines).
type SkipStats struct {
	requested atomic.Int64
	skipped   atomic.Int64
}

func (s *SkipStats) add(requested, skipped int64) {
	s.requested.Add(requested)
	s.skipped.Add(skipped)
}

// Counts returns the tuples requested by predicate-carrying scans and
// the tuples pruned before any I/O was scheduled.
func (s *SkipStats) Counts() (requested, skipped int64) {
	return s.requested.Load(), s.skipped.Load()
}

// pruneScanRanges applies the context's zone maps to a predicate scan's
// requested ranges, returning the surviving subranges (clipped and
// coalesced per zone block). It is the single pruning site both scan
// operators call at Open: everything downstream — ABM chunk interest,
// PBM page registration, read-ahead runs, admission-cost accounting —
// sees only the survivors.
//
// Each requested RID range is decomposed into its merge segments — one
// stable run when deltas is nil — and pruned through delta-widened
// bounds: the zone maps summarize stable storage only, so a scan over
// pending updates must not trust them for what the deltas changed.
// Stable runs prune in SID space through the index, except
// that a modification on the predicate column carrying an in-range
// value forces its tuple back in (the block's recorded bounds no longer
// cover it); inserted runs survive iff any inserted row matches.
// Deleted tuples are already absent from the segments. Skipping thus
// stays sound — no pruned tuple could have matched — and stays active
// under writes instead of degrading to a full scan.
func (c *Ctx) pruneScanRanges(snap *storage.Snapshot, ranges []RIDRange, pred *ScanPredicate, deltas *pdt.PDT) []RIDRange {
	if pred == nil || c.Zones == nil {
		return ranges
	}
	ix := c.Zones.Lookup(snap, pred.Col)
	if ix == nil {
		return ranges
	}
	var out []RIDRange
	var requested, surviving int64
	for _, r := range ranges {
		requested += r.Hi - r.Lo
		kept := pruneDeltaRange(ix, r.Lo, segmentsOf(deltas, r), pred)
		for _, kr := range kept {
			surviving += kr.Hi - kr.Lo
		}
		out = appendCoalesced(out, kept...)
	}
	if c.Skip != nil {
		c.Skip.add(requested, requested-surviving)
	}
	return out
}

// appendCoalesced appends ranges to out, merging a run that abuts or
// overlaps out's tail.
func appendCoalesced(out []RIDRange, add ...RIDRange) []RIDRange {
	for _, kr := range add {
		if n := len(out); n > 0 && out[n-1].Hi >= kr.Lo {
			if kr.Hi > out[n-1].Hi {
				out[n-1].Hi = kr.Hi
			}
			continue
		}
		out = append(out, kr)
	}
	return out
}
