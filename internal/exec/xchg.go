package exec

import (
	"sync"

	"repro/internal/rt"
	"repro/internal/storage"
)

// XChg is the Exchange operator of §2.2 (Volcano-style): it runs N copies
// of a subplan as separate processes (one per "thread") and merges their
// output streams. Plans are parallelized by statically partitioning the
// scanned RID range per Equation 1 and building one subplan per
// partition.
//
// The merge is one mechanism on both runtimes: a shared slice queue
// under a mutex, and two runtime events for back pressure — space wakes
// producers parked on a full queue, ready wakes the consumer parked on
// an empty one. Every park takes its Waiter under the mutex, so a Fire
// between the check and the Wait is never lost on real threads, while on
// the simulator (lazy waiters, uncontended mutex) the event order is
// byte-for-byte the historical deterministic one. Every producer starts
// at Open as a runtime process of its own; the CPU model's cores, not a
// thread pool, bound how many of them work at once.
type XChg struct {
	Ctx *Ctx
	// Parts builds the i-th parallel subplan.
	Parts []func() Op
	// QueueCap bounds the per-producer output queue in batches (back
	// pressure); default 4.
	QueueCap int

	schema []storage.ColumnType
	space  rt.Event
	ready  rt.Event
	opened bool
	closed bool

	// mu guards the merge state below.
	mu      sync.Mutex
	queue   []*Batch
	running int  // producers that have not finished
	done    bool // the consumer closed: producers stop at their next check

	// stopCancel deregisters the query-cancel hook installed at Open. The
	// hook is the bridge between the query lifecycle and the operator's
	// own wake-up machinery: it fires both events, so a client cancel
	// and an early consumer close travel the identical shutdown path. It
	// takes no lock, so it may run from any lifecycle check.
	stopCancel func()
}

// Schema implements Operator.
func (x *XChg) Schema() []storage.ColumnType {
	if x.schema == nil {
		op := x.Parts[0]()
		x.schema = op.Schema()
	}
	return x.schema
}

// Open implements Operator: spawns one producer process per subplan.
func (x *XChg) Open() {
	if x.opened {
		panic("exec: XChg reopened")
	}
	x.opened = true
	if x.QueueCap <= 0 {
		x.QueueCap = 4
	}
	x.Schema() // resolves x.schema, which the producers copy batches with
	x.space = x.Ctx.RT.NewEvent()
	x.ready = x.Ctx.RT.NewEvent()
	// One persistent hook covers every park in this operator: a cancel
	// fires both events, waking parked producers (space) and the consumer
	// (ready), which re-check the lifecycle before parking again.
	x.stopCancel = x.Ctx.Query.OnCancel(func() {
		x.space.Fire()
		x.ready.Fire()
	})
	x.running = len(x.Parts)
	for _, mk := range x.Parts {
		mk := mk
		x.Ctx.RT.Go("xchg-worker", func() { x.produce(mk) })
	}
}

// produce runs one subplan to its end, or until the query is cancelled
// or the consumer closes, pushing a copy of every batch: the producer's
// batch is reused on its next call, while the consumer drains
// asynchronously. The subplan is a root (Run): the copies are what the
// consumer reads, so its buffers go back when it closes.
func (x *XChg) produce(mk func() Op) {
	Run(mk(), func(b *Batch) bool {
		return x.push(copyBatch(x.schema, b)) && !x.Ctx.Query.Cancelled()
	})
	x.mu.Lock()
	x.running--
	x.mu.Unlock()
	x.ready.Fire()
}

// push appends b to the merge queue, parking while the queue is full. It
// reports false when the producer must stop instead: the query was
// cancelled or the consumer closed. The lifecycle check sits between
// taking the Waiter and parking — outside the mutex, and after the
// Waiter, so a cancel on either side of it is observed.
func (x *XChg) push(b *Batch) bool {
	x.mu.Lock()
	for len(x.queue) >= x.QueueCap*len(x.Parts) && !x.done {
		w := x.space.Waiter()
		x.mu.Unlock()
		if x.Ctx.Query.Cancelled() {
			return false
		}
		w.Wait()
		x.mu.Lock()
	}
	if x.done {
		x.mu.Unlock()
		return false
	}
	x.queue = append(x.queue, b)
	x.mu.Unlock()
	x.ready.Fire()
	return true
}

// copyBatch is a copy of b the consumer may keep, its vectors sized to
// the batch: a partial aggregate of four rows costs four rows.
func copyBatch(schema []storage.ColumnType, b *Batch) *Batch {
	cp := NewBatch(schema)
	cp.N = b.N
	for c, v := range cp.Vecs {
		switch src := b.Vecs[c]; v.T {
		case storage.Int64:
			v.I64 = make([]int64, b.N)
			copy(v.I64, src.I64)
		case storage.Float64:
			v.F64 = make([]float64, b.N)
			copy(v.F64, src.F64)
		case storage.String:
			v.Str = make([]string, b.N)
			copy(v.Str, src.Str)
		}
	}
	return cp
}

// Next implements Operator: pops merged batches in arrival order. A
// cancelled query yields end-of-stream; the producers observe the same
// cancel and wind down on their own.
func (x *XChg) Next() *Batch {
	if x.Ctx.Query.Cancelled() {
		return nil
	}
	x.mu.Lock()
	for len(x.queue) == 0 {
		if x.running == 0 {
			x.mu.Unlock()
			return nil
		}
		w := x.ready.Waiter()
		x.mu.Unlock()
		w.Wait()
		if x.Ctx.Query.Cancelled() {
			return nil
		}
		x.mu.Lock()
	}
	b := x.queue[0]
	x.queue = x.queue[1:]
	x.mu.Unlock()
	x.space.Fire()
	return b
}

// Close implements Operator: tells the producers to stop, discards what
// they queued and waits for them to terminate, so a plan closed early
// stops charging I/O and CPU for batches nobody will read. Idempotent —
// the cancel path and the plan driver may both close the operator.
func (x *XChg) Close() {
	if x.closed {
		return
	}
	x.closed = true
	if x.stopCancel != nil {
		x.stopCancel()
	}
	x.mu.Lock()
	x.done = true
	for x.running > 0 {
		w := x.ready.Waiter()
		x.mu.Unlock()
		x.space.Fire()
		w.Wait()
		x.mu.Lock()
	}
	x.queue = nil
	x.mu.Unlock()
}
