package exec

import (
	"sync"

	"repro/internal/abm"
	"repro/internal/buffer"
	"repro/internal/pbm"
	"repro/internal/pdt"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// CPU models a fixed number of cores: operators charge work bursts that
// occupy one core for their duration, so more threads than cores contend,
// producing the CPU-bound plateaus of the paper's high-bandwidth
// configurations. It is the only bound on concurrent threads in both
// modes: XChg starts every subplan as a process of its own, and the core
// semaphore decides which of them work. On the real runtime the semaphore
// is a real one and the burst is wall-clock sleep, so the model prices CPU
// work identically in both modes; a scan thread's bursts advance its
// modelled clock (see rt.QueryCtx.Fork), and the core is held for the
// lump the thread sleeps once that clock is a quantum ahead of the wall
// clock, not once per burst.
type CPU struct {
	r   rt.Runtime
	res rt.Resource
}

// NewCPU creates a CPU with the given core count.
func NewCPU(r rt.Runtime, cores int) *CPU {
	return &CPU{r: r, res: r.NewResource(cores)}
}

// Work occupies one core for d, charged to the thread that owns q (nil:
// nobody's, the burst is slept as it is).
func (c *CPU) Work(q *QueryCtx, d sim.Duration) {
	if d <= 0 {
		return
	}
	lump := q.Owe(d)
	if lump <= 0 {
		return
	}
	c.res.Acquire()
	q.Pay(c.r, lump)
	c.res.Release()
}

// Ctx carries the execution environment shared by a plan's operators.
type Ctx struct {
	// RT is the execution runtime: the deterministic simulator or the
	// real-threaded wall-clock runtime.
	RT rt.Runtime
	// CPU is the core model; nil disables CPU cost.
	CPU *CPU
	// PerTupleCPU is the virtual CPU cost charged per tuple produced by a
	// scan (the dominant cost in the modeled workloads).
	PerTupleCPU sim.Duration
	// Pool is the traditional buffer pool used by Scan operators.
	Pool *buffer.Pool
	// PBM, when non-nil, is the Pool's policy and scans register their
	// future accesses with it. Nil when the pool runs a non-PBM policy.
	PBM *pbm.PBM
	// ABM, when non-nil, serves CScan operators.
	ABM *abm.ABM
	// ReadAheadTuples is the per-column read-ahead window of the Scan
	// operator, in tuples.
	ReadAheadTuples int64
	// Zones, when non-nil, holds the per-(snapshot, column) MinMax
	// indexes predicate scans prune their ranges through.
	Zones *ZoneMaps
	// Skip, when non-nil, accumulates the run's zone-map pruning
	// counters (tuples requested by predicate scans vs tuples skipped).
	Skip *SkipStats
	// Heat, when non-nil, counts the access temperature of the stable
	// ranges scans declare at Open (tiered-temp's profiling pass).
	Heat *ChunkHeat
	// Query is the lifecycle handle of the query this plan executes (see
	// WithQuery); nil means a query that can never be cancelled, which
	// every operator runs exactly as it runs a live handle nobody cancels.
	Query *QueryCtx

	// free is the free list of vector buffers that the plans run in this
	// context take from (see lease). It is made at first use and shared
	// with every WithQuery copy.
	free *freeVecs
}

// maxFreeVecs bounds each column type's free list, so that a burst of
// queries cannot keep its buffers for the context's life. A §4.1 rep (64
// scan threads at once) leaves at most 441 Float64 buffers on it.
const maxFreeVecs = 1024

// freeVecs is a context's free list of vector buffers, one list per
// column type; each buffer is empty, with room for VectorSize values.
type freeVecs [3][]Vec

// freeMu guards every context's free list, and its making.
var freeMu sync.Mutex

// freeList returns c's free list, making it on first use.
func (c *Ctx) freeList() *freeVecs {
	freeMu.Lock()
	defer freeMu.Unlock()
	if c.free == nil {
		c.free = new(freeVecs)
	}
	return c.free
}

// A lease is what one plan root takes from its context's free list: the
// own buffers of its scans' columns, its projections' computed vectors
// and their arithmetic's operand scratch. A root is what Run runs — a
// query's plan, or an XChg part — and its buffers go back when the root
// closes, never when the operator that took them does: a vector handed
// downstream may be read after its producer is done. A part's buffers
// may go back at its Close, since XChg queues copies of its batches.
type lease struct {
	free *freeVecs // its scans' context's; nil: no scan, buffers are made
	vecs []Vec     // every buffer taken, as it was taken
}

// newLease binds the operators of op's plan that take buffers to a lease
// of their own, down to but not into an XChg's parts and a HashJoin's
// build side, which are roots of their own. A plan's scans run in one
// context or its WithQuery copies, which share one free list.
func newLease(op Op) *lease {
	l := &lease{}
	l.bind(op)
	return l
}

func (l *lease) bind(op Op) {
	switch op := op.(type) {
	case *Scan:
		l.free, op.lease = op.Ctx.freeList(), l
	case *CScan:
		l.free, op.lease = op.Ctx.freeList(), l
	case *XChg:
		l.free = op.Ctx.freeList()
	case *Project:
		op.lease = l
		l.bind(op.Child)
	case *Select:
		l.bind(op.Child)
	case *HashAggr:
		l.bind(op.Child)
	case *HashJoin:
		l.bind(op.Probe)
	case *Sort:
		l.bind(op.Child)
	case *Apply:
		l.bind(op.Inner)
		l.bind(op.Outer)
	}
}

// take returns an empty buffer for a vector of type t with room for
// VectorSize values, a String one with room for as many codes: one from
// the free list if it has one, a new one otherwise. l keeps it until
// release. A lease without a free list (or a nil one) makes a new one
// and keeps nothing.
func (l *lease) take(t storage.ColumnType) Vec {
	v, keep := Vec{T: t}, l != nil && l.free != nil
	if keep {
		freeMu.Lock()
		if list := l.free[t]; len(list) > 0 {
			v, l.free[t] = list[len(list)-1], list[:len(list)-1]
		}
		freeMu.Unlock()
	}
	if v.empty() {
		v.reserve(VectorSize)
		if t == storage.String {
			v.Code = make([]byte, 0, VectorSize)
		}
	}
	if keep {
		l.vecs = append(l.vecs, v)
	}
	return v
}

// release hands every buffer l took back to the free list, as far as the
// list's bound allows. Call it once, after the root has closed.
func (l *lease) release() {
	freeMu.Lock()
	defer freeMu.Unlock()
	for _, v := range l.vecs {
		if list := &l.free[v.T]; len(*list) < maxFreeVecs {
			*list = append(*list, v)
		}
	}
}

// NewScan builds the scan operator the context's buffer manager serves:
// a CScan through the ABM under Cooperative Scans, a Scan through the
// pool otherwise. ranges nil means the whole table as deltas (nil: none
// pending) shows it; pred, which must name one of cols, restricts the
// scan to the tuples it admits (nil: unrestricted).
func (c *Ctx) NewScan(snap *storage.Snapshot, cols []int, ranges []RIDRange, deltas *pdt.PDT, pred *ScanPredicate) Op {
	if ranges == nil {
		n := snap.NumTuples()
		if deltas != nil {
			n = deltas.NumTuples()
		}
		ranges = []RIDRange{{Lo: 0, Hi: n}}
	}
	if c.ABM != nil {
		return &CScan{Ctx: c, Snap: snap, Cols: cols, Ranges: ranges, PDT: deltas, Pred: pred}
	}
	return &Scan{Ctx: c, Snap: snap, Cols: cols, Ranges: ranges, PDT: deltas, Pred: pred}
}

// work charges d against the context's CPU model, if any, on behalf of
// the thread that owns q.
func (c *Ctx) work(q *QueryCtx, d sim.Duration) {
	if c.CPU != nil {
		c.CPU.Work(q, d)
	}
}
