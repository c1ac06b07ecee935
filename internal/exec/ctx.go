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

// maxFreeVecs bounds each list of a context's free list, so that a burst
// of queries cannot keep its buffers for the context's life. A §4.1 rep
// (64 scan threads at once) leaves at most 441 Float64 buffers on it.
const maxFreeVecs = 1024

// freeVecs is a context's free list of scratch buffers, each empty: one
// list of vector buffers per column type, with room for VectorSize
// values, one list of int32 buffers per intKind, with the room they grew
// to, operators' output batches, their vectors dropped, and the rings of
// split chains (split.go), their slots emptied.
type freeVecs struct {
	vecs    [3][]Vec
	ints    [3][][]int32
	batches []*Batch
	rings   []*ring
}

// An intKind sorts the int32 scratch of the plan's operators by the room
// it grows to.
type intKind int

const (
	posBuf   intKind = iota // positions or group ids: a vector's worth
	tableBuf                // a HashAggr's direct table: the nodes it met
	runsBuf                 // a HashAggr's runs: a vector's per group
)

// freeMu guards every context's free list, its making, and every lease's
// records of what it took.
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

// A lease is what one plan root takes from its context's free list: its
// operators' output batches, the own buffers of its scans' columns, its
// projections' computed vectors and their arithmetic's operand scratch,
// and its filters' and aggregates' int32 scratch. A root is what Run runs
// — a query's plan, or an XChg part — and its buffers go back when the
// root closes, never when the operator that took them does: a vector
// handed downstream may be read after its producer is done. A part's
// buffers may go back at its Close, since XChg queues copies of its
// batches.
//
// On the simulator a root's aggregate may run its filters, projections
// and group-by on a goroutine of its own beside its scan (split.go), so
// two goroutines can take from one lease at once: each take records what
// it took under freeMu. Each operator's own scratch is only ever touched
// by the one goroutine that runs the operator, and release runs after
// both are done.
type lease struct {
	free    *freeVecs  // its scans' context's; nil: no scan, buffers are made
	vecs    []Vec      // every vector buffer taken, as it was taken
	held    []leaseInt // every int32 scratch it hands back
	batches []*Batch   // every output batch taken
	rings   []*ring    // every ring taken
}

// leaseInt is an operator's int32 scratch on a lease: a buffer it holds
// when the lease is released goes back to the kind's list.
type leaseInt struct {
	p    *[]int32
	kind intKind
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
		op.lease = l
		l.bind(op.Child)
	case *HashAggr:
		op.lease = l
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
		if list := l.free.vecs[t]; len(list) > 0 {
			v, l.free.vecs[t] = list[len(list)-1], list[:len(list)-1]
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
		freeMu.Lock()
		l.vecs = append(l.vecs, v)
		freeMu.Unlock()
	}
	return v
}

// batch returns an empty batch of the given column types for an
// operator's output: one from the free list if it has one, a new one
// otherwise. l keeps it until release, when it goes back with its vectors
// dropped, since they may hold a page's memory or another operator's
// buffer. A lease without a free list (or a nil one) makes a new one and
// keeps nothing.
func (l *lease) batch(types []storage.ColumnType) *Batch {
	if l == nil || l.free == nil {
		return NewBatch(types)
	}
	var b *Batch
	freeMu.Lock()
	if list := l.free.batches; len(list) > 0 {
		b, l.free.batches = list[len(list)-1], list[:len(list)-1]
	}
	if b == nil {
		b = new(Batch)
	}
	l.batches = append(l.batches, b)
	freeMu.Unlock()
	b.retype(types)
	return b
}

// ints sets *p, an operator's int32 scratch, to length n (contents
// unspecified). Its first buffer comes from the free list when that has
// one of the kind; the operator's later calls grow it as they need. At
// release l takes back whatever buffer *p then holds and leaves *p nil. A
// lease without a free list (or a nil one) only resizes.
func (l *lease) ints(p *[]int32, kind intKind, n int) {
	if *p == nil && l != nil && l.free != nil {
		freeMu.Lock()
		if list := l.free.ints[kind]; len(list) > 0 {
			*p, l.free.ints[kind] = list[len(list)-1], list[:len(list)-1]
		}
		l.held = append(l.held, leaseInt{p, kind})
		freeMu.Unlock()
	}
	if *p = resize(*p, n); *p == nil {
		*p = []int32{} // a held scratch is never nil, so it is held once
	}
}

// release hands every buffer l took back to the free list, as far as the
// list's bound allows. Call it once, after the root has closed.
func (l *lease) release() {
	freeMu.Lock()
	defer freeMu.Unlock()
	for _, v := range l.vecs {
		if list := &l.free.vecs[v.T]; len(*list) < maxFreeVecs {
			*list = append(*list, v)
		}
	}
	for _, s := range l.held {
		if list := &l.free.ints[s.kind]; cap(*s.p) > 0 && len(*list) < maxFreeVecs {
			*list = append(*list, (*s.p)[:0])
		}
		*s.p = nil
	}
	for _, b := range l.batches {
		clear(b.own)
		clear(b.Vecs)
		if len(l.free.batches) < maxFreeVecs {
			l.free.batches = append(l.free.batches, b)
		}
	}
	for _, r := range l.rings {
		r.reset()
		if len(l.free.rings) < maxFreeVecs {
			l.free.rings = append(l.free.rings, r)
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
