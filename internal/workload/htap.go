package workload

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/pdt"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// UpdateKind names the delta operation an update query applies.
type UpdateKind int

const (
	// UpdateInsert adds synthesized lineitem rows.
	UpdateInsert UpdateKind = iota
	// UpdateDelete removes rows.
	UpdateDelete
	// UpdateModify rewrites l_shipdate in place — the operation that
	// exercises delta-widened zone-map pruning hardest, since it can
	// move tuples into a predicate window their stable block excludes.
	UpdateModify
)

func (k UpdateKind) String() string {
	switch k {
	case UpdateInsert:
		return "insert"
	case UpdateDelete:
		return "delete"
	case UpdateModify:
		return "modify"
	}
	return fmt.Sprintf("UpdateKind(%d)", int(k))
}

// ParseUpdateKind resolves a wire-level kind name.
func ParseUpdateKind(s string) (UpdateKind, error) {
	switch strings.ToLower(s) {
	case "insert":
		return UpdateInsert, nil
	case "delete":
		return UpdateDelete, nil
	case "modify":
		return UpdateModify, nil
	}
	return 0, fmt.Errorf("unknown update kind %q (want insert, delete or modify)", s)
}

// UpdateOp is one drawn update query: the kind, a position fraction
// (resolved against the table's tuple count at apply time, since
// concurrent writes move RIDs), a synthesized l_shipdate value inside
// the loaded date domain, and the number of delta operations the query
// applies in one transaction (its delta size, which also prices it).
type UpdateOp struct {
	Kind  UpdateKind
	Frac  float64
	Date  int64
	Batch int
}

// maxUpdateBatch bounds the per-query delta size drawn by drawUpdate.
const maxUpdateBatch = 4

// ckptWindow is one completed checkpoint/merge interval on the run's
// clock — the window merge-overlap scan latency is measured against.
type ckptWindow struct {
	start, end sim.Time
}

// htapState is the serving engine's write path: the PDT store over
// lineitem and the background checkpoint/merge process with its
// measurement windows. Always wired: until the first update commits,
// every pinned view carries nil deltas and reads are exactly the plain
// snapshot scans.
type htapState struct {
	store  *pdt.Store
	schema storage.Schema
	// baseTuples floors deletion: the table never shrinks below half its
	// loaded size, keeping drawn scan ranges meaningful.
	baseTuples int64
	ckptOps    int64
	// mergeCost models the checkpoint's materialization time: the stable
	// image rewritten at simScanSpeed. During that window reads keep
	// serving from their pinned views — that coexistence is exactly what
	// MergeP95 measures.
	mergeCost sim.Duration

	mu          sync.Mutex
	ckptRunning bool
	checkpoints int
	windows     []ckptWindow
}

// newHTAP builds the write path over the catalog's cached lineitem
// snapshot.
func (en *ServeEngine) newHTAP(db *tpch.DB, checkpointOps int) *htapState {
	snap := db.Snapshot("lineitem")
	schema := snap.Table().Schema
	h := &htapState{
		store:      pdt.NewStoreAt(snap),
		schema:     schema,
		baseTuples: snap.NumTuples(),
		ckptOps:    int64(checkpointOps),
	}
	cols := make([]int, len(schema))
	for i := range cols {
		cols[i] = i
	}
	h.mergeCost = sim.Duration(float64(snap.TotalBytes(cols)) / simScanSpeed * float64(time.Second))
	h.store.SetCheckpointHook(func(old, next *storage.Snapshot) {
		en.retireSnapshot(old, next)
	})
	return h
}

// retireSnapshot is the checkpoint hook: the old stable snapshot's
// derived state is invalidated layer by layer — zone maps drop and
// rebuild over the replacement, the buffer pool evicts the retired
// pages (pinned frames, i.e. scans still draining a pinned view,
// survive until they unpin), and the ABM drops its per-version chunk
// interest for versions no scan holds. Runs inside the store's critical
// section, so a view pinned before or after sees a coherent pair.
func (en *ServeEngine) retireSnapshot(old, next *storage.Snapshot) {
	for _, col := range en.Ctx.Zones.Drop(old) {
		en.Ctx.Zones.Build(next, col, en.cfg.ChunkTuples)
	}
	if en.Pool != nil {
		for col := range old.Table().Schema {
			en.Pool.InvalidatePages(old.Pages(col))
		}
	}
	if en.ABM != nil {
		en.ABM.InvalidateVersions(next.Table(), next.Version())
	}
}

// newRow synthesizes one lineitem row: the shipdate column shipCol
// carries the drawn date (so inserts interact with zone-map windows),
// everything else is a type-correct placeholder.
func (h *htapState) newRow(shipCol int, date int64) pdt.Row {
	row := make(pdt.Row, len(h.schema))
	for i, def := range h.schema {
		switch def.Type {
		case storage.Int64:
			if i == shipCol {
				row[i] = pdt.IntVal(date)
			} else {
				row[i] = pdt.IntVal(1)
			}
		case storage.Float64:
			row[i] = pdt.FloatVal(1)
		default:
			row[i] = pdt.StrVal("U")
		}
	}
	return row
}

// apply executes one update query against the store: a single
// transaction of Batch delta operations at positions derived from the
// drawn fraction, writing its date into column shipCol. Update's
// critical-section transactions cannot conflict, so the error is always
// nil in practice; it is returned for the serving handler's benefit.
func (h *htapState) apply(op UpdateOp, shipCol int) (applied int, err error) {
	err = h.store.Update(func(tx *pdt.Tx) error {
		for i := 0; i < op.Batch; i++ {
			n := tx.NumTuples()
			if n <= 0 {
				return nil
			}
			rid := (int64(op.Frac*float64(n)) + int64(i)*7919) % n
			switch op.Kind {
			case UpdateInsert:
				tx.Insert(rid, h.newRow(shipCol, op.Date))
			case UpdateDelete:
				if n <= h.baseTuples/2 {
					continue // deletion floor: keep drawn ranges meaningful
				}
				tx.Delete(rid)
			default:
				tx.Modify(rid, shipCol, pdt.IntVal(op.Date))
			}
			applied++
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return applied, nil
}

// maybeCheckpoint starts the background checkpoint/merge process when
// the committed-but-uncheckpointed delta count crosses the configured
// trigger. The merge runs as its own runtime goroutine: write deltas
// propagate to the read PDT, the materialization cost elapses (reads
// keep serving from pinned views the whole time), and the checkpoint
// swaps in the fresh stable snapshot — retiring the old one through the
// invalidation hook. At most one merge runs at a time. The merge is a
// thread of its own on the real runtime: it waits out the cost on a paced
// fork, so the propagation's real work pays part of it and the swap
// still comes no earlier than mergeCost after the start.
func (h *htapState) maybeCheckpoint(r rt.Runtime, wg rt.WaitGroup) {
	if h.ckptOps <= 0 || h.store.Pending() < h.ckptOps {
		return
	}
	h.mu.Lock()
	if h.ckptRunning {
		h.mu.Unlock()
		return
	}
	h.ckptRunning = true
	h.mu.Unlock()
	wg.Add(1)
	r.Go("checkpoint", func() {
		defer wg.Done()
		pace := rt.NewQueryCtx(r).Fork()
		start := r.Now()
		h.store.PropagateWriteToRead()
		pace.SleepUntil(r, start+rt.Time(h.mergeCost))
		pace.Flush()
		_, err := h.store.Checkpoint()
		h.mu.Lock()
		if err == nil {
			h.checkpoints++
			h.windows = append(h.windows, ckptWindow{start: start, end: r.Now()})
		}
		h.ckptRunning = false
		h.mu.Unlock()
	})
}

// mergeStats reports the completed checkpoint count and the p95
// end-to-end latency of read queries whose lifetime overlapped a
// checkpoint/merge window — the "does a merge stall scans" number.
func (h *htapState) mergeStats(completed []sched.QueryStat) (checkpoints int, mergeP95 sim.Duration) {
	h.mu.Lock()
	windows := h.windows
	checkpoints = h.checkpoints
	h.mu.Unlock()
	var lats []sim.Duration
	for _, q := range completed {
		if q.Write {
			continue
		}
		for _, w := range windows {
			if q.Arrive < w.end && q.Finish > w.start {
				lats = append(lats, q.Latency())
				break
			}
		}
	}
	return checkpoints, sched.Percentile(lats, 95)
}

// clipToView clamps a drawn scan range (positioned against the loaded
// tuple count) to the pinned view's current tuple count.
func clipToView(r exec.RIDRange, n int64) exec.RIDRange {
	if r.Hi > n {
		r.Hi = n
	}
	if r.Lo >= r.Hi {
		r.Lo, r.Hi = 0, n
	}
	return r
}
