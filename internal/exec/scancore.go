package exec

import (
	"fmt"
	"slices"

	"repro/internal/pdt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// scanCore is what Scan and CScan do alike: the vector loop over a
// segCursor, the per-vector CPU charge on the scan thread's pacing fork,
// and the scan's predicate. The operators keep only what their buffer
// manager asks of them: which segments come next (advance) and how a
// stable run is read (the cursor's read).
type scanCore struct {
	types []storage.ColumnType
	out   *Batch
	merge segCursor // over the current segment list
	// consumed counts the stable tuples read so far (PBM progress unit).
	consumed int64
	// filter applies the scan's predicate; nil for an unrestricted scan.
	filter *scanFilter
	// pace is this scan thread's fork of Ctx.Query: the pacing domain of
	// its CPU charges and, for a Scan, the owner tag of its pool requests
	// and of the device waits they share it with (nil when the plan has
	// no lifecycle handle).
	pace *QueryCtx
	// lease is the plan root's, which the scan's batches and own buffers
	// come from (nil: the scan runs under no root, and makes them).
	lease *lease
}

// scanFilter is a predicate scan's exact filter: Between over the
// predicate column's position in the vector, the selection it narrows
// and the batch the survivors of a partly passing vector are gathered
// into, made when one first does.
type scanFilter struct {
	pred Expr
	sel  []int32
	out  *Batch
}

// schema is the output schema of a scan of snap's columns cols.
func (c *scanCore) schema(snap *storage.Snapshot, cols []int) []storage.ColumnType {
	if c.types == nil {
		c.types = scanSchema(snap, cols)
	}
	return c.types
}

// open prepares the vector loop of the scan op names, reading stable
// runs through read, and returns ranges pruned by pred through the
// context's zone maps and checked against the scanned image. A pred on a
// column the scan does not read is refused: the scan could prune by it
// but never filter by it.
func (c *scanCore) open(op string, ctx *Ctx, snap *storage.Snapshot, cols []int, ranges []RIDRange, deltas *pdt.PDT, pred *ScanPredicate, read colReader) []RIDRange {
	if c.out != nil {
		panic("exec: " + op + " reopened")
	}
	c.out = c.lease.batch(c.schema(snap, cols))
	c.pace = ctx.Query.Fork()
	c.merge = newSegCursor(c.out, cols, read, c.lease)
	if pred != nil {
		pos := slices.Index(cols, pred.Col)
		if pos < 0 {
			panic(fmt.Sprintf("exec: %s predicate on column %d, which it does not read (%v)", op, pred.Col, cols))
		}
		typeCheck(storage.Int64, c.types[pos], op+" predicate column")
		c.filter = &scanFilter{pred: Between(Col{Idx: pos, T: storage.Int64}, pred.Lo, pred.Hi)}
	}
	ranges = ctx.pruneScanRanges(snap, ranges, pred, deltas)
	checkRanges(op, snap, deltas, ranges)
	return ranges
}

// next returns the next vector of tuples that pass the predicate of a
// scan running in ctx, or nil at the end of the scan or once its query
// is cancelled. Each vector read is filled from the cursor, advance
// moving it to the next segment list until it reports none is left; it
// is charged its CPU and handed with the stable tuples consumed so far
// to report (nil: none) before the filter runs, so charges and reports
// stay per vector read whatever passes, and a vector nothing passes is
// read past.
func (c *scanCore) next(ctx *Ctx, advance func() bool, report func(consumed int64)) *Batch {
	for !ctx.Query.Cancelled() {
		c.merge.rewind(c.out)
		for c.out.N < VectorSize {
			if c.merge.done() {
				if !advance() {
					break
				}
				continue
			}
			n, err := c.merge.fill(c.out)
			c.consumed += n
			if err != nil {
				// Cancelled at a blocking pool wait: the partial batch is
				// discarded — nobody will consume it.
				return nil
			}
		}
		if c.out.N == 0 {
			return nil
		}
		ctx.work(c.pace, ctx.PerTupleCPU*sim.Duration(c.out.N))
		if report != nil {
			report(c.consumed)
		}
		f := c.filter
		if f == nil {
			return c.out
		}
		c.lease.ints(&f.sel, posBuf, c.out.N)
		switch sel := narrow(f.pred, c.out, all(f.sel, c.out.N), f.sel, nil); len(sel) {
		case 0:
		case c.out.N:
			return c.out
		default:
			if f.out == nil {
				f.out = c.lease.batch(c.types)
			}
			f.out.gather(c.out, sel)
			return f.out
		}
	}
	return nil
}
