package exec

import (
	"runtime"
	"sync/atomic"

	"repro/internal/storage"
)

// On the simulator one simulated process runs at a time, so a rep of the
// paper's figures would use one core. Most of an aggregating part's host
// time, though, is vector work that never calls the runtime and takes no
// simulated time: the filters, projections and group-by between its scan
// and its HashAggr. So when the host has a second core (and the scans
// charge CPU time, see splitsOn), an aggregate over a chain of Selects and
// Projects that ends in a Scan or CScan splits the chain at the scan. The
// simulated thread runs the scan loop as it always does — pool and ABM
// calls, PBM reports, the per-vector CPU charge, the cancellation checks
// — and hands each vector through a ring of a few slots to a goroutine
// of its own, which runs the rest of the chain and the aggregate's add.
// The thread waits for that goroutine before the aggregate emits. No
// simulated event moves: the aggregate drains its whole child either way,
// nothing above the scan calls the runtime, and the wait takes no
// simulated time.
//
// A vector that is a page's memory is handed over as it is (pages are
// never written). One in the scan's own buffers is handed over with them:
// the scan rotates through one set of buffers (scanBufs) more than the
// ring has slots, so it never fills a vector that is still being read,
// and nothing is copied.
//
// The real runtime keeps the chain inline: there each scan thread is a
// goroutine of its own already, and its real work nets against its
// modelled clock (rt.QueryCtx.Fork).

// splitDepth is how many vectors a Scan may hand on ahead of the
// aggregate, cscanDepth a CScan. A deeper ring lets the simulated thread
// run further ahead of an aggregate's goroutine the Go scheduler has not
// run yet, but a slot may hold a set of the scan's own column buffers. A
// Scan's vectors are mostly a page's memory and hold none; a CScan's
// straddle its 2048-tuple chunks, so nearly every one is a copy. At the
// §4.1 point 8 slots for both scans raised micro-cscan's peak RSS 15%,
// where 5 raised it 6%; micro-pbm's host_qps rose 32% with 8 slots and
// about 20% with 5.
const splitDepth, cscanDepth = 8, 5

// inlineChains keeps every chain inline on the simulator too (a test
// hook); splits counts the chains that were split (for tests).
var (
	inlineChains atomic.Bool
	splits       atomic.Int64
)

// splitsOn reports whether an aggregate over a scan running in ctx
// splits its chain: only on the simulator, only when its scans charge
// modelled CPU time, and only when the host runs goroutines on more than
// one core. A charge ends every vector of a scan with a wait for a core,
// where the simulated thread runs other processes' scans while the
// aggregate's goroutine works; a scan that charges nothing reads on to its
// last vector at once, and the thread would only wait for the goroutine
// at the end (an eight-part Q1 over a resident table took 20-45% longer
// per tuple split than inline).
func splitsOn(ctx *Ctx) bool {
	return !ctx.RT.Real() && ctx.CPU != nil && ctx.PerTupleCPU > 0 &&
		runtime.GOMAXPROCS(0) > 1 && !inlineChains.Load()
}

// splitPoint returns the scan at the bottom of a's chain of Selects and
// Projects and the field that holds it (the Child of the chain's lowest
// operator, or a's own) when the chain splits there, or nil when it ends
// in anything else or the scan does not run where chains split.
func (a *HashAggr) splitPoint() (core *scanCore, scan Op, at *Op) {
	for at = &a.Child; ; {
		switch op := (*at).(type) {
		case *Select:
			at = &op.Child
		case *Project:
			at = &op.Child
		case *Scan:
			if splitsOn(op.Ctx) {
				return &op.scanCore, op, at
			}
			return nil, nil, nil
		case *CScan:
			if splitsOn(op.Ctx) {
				return &op.scanCore, op, at
			}
			return nil, nil, nil
		default:
			return nil, nil, nil
		}
	}
}

// A ring is what a split chain hands its vectors through. Its channels
// are never closed, so it goes back to the context's free list with its
// plan root's buffers and serves the next split chain.
type ring struct {
	full chan *handoff // the scan's vectors in order; nil ends the stream
	free chan *handoff // the slots the scan may fill next
	done chan struct{} // one send: the aggregate's goroutine returned
	// failure is what that goroutine panicked with (nil: it did not).
	failure any
	slots   [splitDepth]handoff
	src     ringSource
}

// handoff is one slot of a ring: a vector the scan emitted and the set of
// buffers it lives in.
type handoff struct {
	b    *Batch
	bufs scanBufs
}

// ring returns an empty ring from the free list if it has one, a new one
// otherwise. l keeps it until release. A lease without a free list (or a
// nil one) makes a new one and keeps nothing.
func (l *lease) ring() *ring {
	if l == nil || l.free == nil {
		return newRing()
	}
	freeMu.Lock()
	defer freeMu.Unlock()
	var r *ring
	if list := l.free.rings; len(list) > 0 {
		r, l.free.rings = list[len(list)-1], list[:len(list)-1]
	} else {
		r = newRing()
	}
	l.rings = append(l.rings, r)
	return r
}

func newRing() *ring {
	return &ring{full: make(chan *handoff, splitDepth), free: make(chan *handoff, splitDepth), done: make(chan struct{}, 1)}
}

// reset empties r for its next use, dropping every buffer its slots
// point at: those went back to the free list with the rest of the lease.
func (r *ring) reset() {
	for len(r.full) > 0 {
		<-r.full
	}
	for len(r.free) > 0 {
		<-r.free
	}
	r.failure = nil
	for k := range r.slots {
		own := r.slots[k].bufs.own
		clear(own)
		r.slots[k] = handoff{bufs: scanBufs{own: own[:0]}}
	}
	r.src = ringSource{}
}

// ringSource stands in for the scan at the bottom of the chain while the
// aggregate's goroutine runs it: it hands on the ring's vectors in order,
// and gives each slot back to the scan at the following Next, when the
// chain is done with its batch.
type ringSource struct {
	types []storage.ColumnType
	r     *ring
	cur   *handoff
}

func (s *ringSource) Open()                        {}
func (s *ringSource) Close()                       {}
func (s *ringSource) Schema() []storage.ColumnType { return s.types }

func (s *ringSource) Next() *Batch {
	if s.cur != nil {
		s.r.free <- s.cur
	}
	if s.cur = <-s.r.full; s.cur == nil {
		return nil
	}
	return s.cur.b
}

// work is the aggregate's goroutine: a's drain over the ring. It ends
// with one send on done, after recording what it panicked with.
func (r *ring) work(a *HashAggr) {
	defer func() { r.done <- struct{}{} }()
	defer func() { r.failure = recover() }()
	a.drain()
}

// end ends the stream and waits for the aggregate's goroutine to return,
// unless it has returned already, in which case the ring may be full.
func (r *ring) end() {
	select {
	case r.full <- nil:
		<-r.done
	case <-r.done:
	}
}

// consumeSplit is consume with the chain split at core, the scan that at
// holds: the calling (simulated) thread runs the scan, a goroutine the
// rest. The thread stops handing on once the goroutine returns early,
// which only a panic makes it do, and raises that panic again after the
// join. A panic or a cancellation in the scan ends the stream and joins
// the goroutine too, so none outlives the call.
func (a *HashAggr) consumeSplit(core *scanCore, scan Op, at *Op) {
	splits.Add(1)
	r, depth := core.lease.ring(), splitDepth
	if _, ok := scan.(*CScan); ok {
		depth = cscanDepth
	}
	for k := range r.slots[:depth] {
		h := &r.slots[k]
		h.bufs = core.newBufs(h.bufs.own)
		r.free <- h
	}
	r.src = ringSource{types: core.types, r: r}
	*at = &r.src
	go r.work(a)
	joined := false
	defer func() {
		if !joined { // the scan panicked
			r.end()
		}
		*at = scan
	}()
	for b := scan.Next(); b != nil; b = scan.Next() {
		var h *handoff
		select {
		case h = <-r.free:
		case <-r.done:
			joined = true
			panic(r.failure)
		}
		core.swap(&h.bufs)
		h.b = b
		select {
		case r.full <- h:
		case <-r.done:
			joined = true
			panic(r.failure)
		}
	}
	r.end()
	joined = true
	if r.failure != nil {
		panic(r.failure)
	}
}
