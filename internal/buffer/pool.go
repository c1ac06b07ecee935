// Package buffer implements the traditional buffer manager of Figure 1:
// a page cache in front of the simulated disk with a pluggable replacement
// policy. Loading decisions are made by the scan operators that call Get;
// the policy only decides what to evict — exactly the architecture PBM
// slots into without disrupting (§3), in contrast to the Active Buffer
// Manager of Cooperative Scans which takes over loading itself.
//
// The pool is one frame table, one in-flight table, one queue of blocked
// reservations, one policy instance and one byte budget under one mutex:
// the victim a policy offers is its choice over every cached page, which
// is what the paper's EvictPage (and LRU's "coldest") mean. The mutex is
// page-granular — taken once per 16 KB page, thousands of tuples of
// vector work apart — and if a workload ever makes it hot, the fix
// consistent with the paper is a cheaper critical section or a
// partitioned frame table under one policy, not partitioned policies.
//
// The pool is runtime-agnostic (internal/rt): metadata, the pin and load
// counts included, is guarded by the mutex, so on the real-threaded
// runtime concurrent scans serialize only per page reference, and every
// decision about the pool's state is taken on an exact view of it. On the
// sim runtime exactly one process runs at a time, the mutex is
// uncontended, and the virtual-time trajectory is identical to the
// historical engine-only code. Both runtimes run one mechanism, blocked
// reservations included: each parks on an event of its own in a FIFO,
// and every freed frame wakes the oldest one (see evictFor/waitFreed).
package buffer

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/iosim"
	"repro/internal/rt"
	"repro/internal/storage"
)

// ErrCancelled is returned by the owner-tagged entry points when the
// owning query is cancelled while (or before) a reservation would block:
// the wait point wakes instead of parking forever and no frame is pinned.
// It is rt.ErrCancelled, so errors.Is works across layers.
var ErrCancelled = rt.ErrCancelled

// Frame is a buffer slot holding one cached page.
type Frame struct {
	Page *storage.Page

	pins    int
	loading bool

	// prev/next are intrusive list links owned by the replacement policy.
	prev, next *Frame
	// refbit is owned by the Clock policy.
	refbit bool
	// PolicyState is an opaque per-frame cookie owned by the policy (PBM
	// stores its page metadata pointer here).
	PolicyState any
}

// Pinned reports whether the frame is currently pinned by any user.
func (f *Frame) Pinned() bool { return f.pins > 0 }

// Loading reports whether the frame's page is still being read from disk.
func (f *Frame) Loading() bool { return f.loading }

// Policy is the pool's replacement policy. The pool calls the lifecycle
// hooks; Victim must return an unpinned, non-loading frame to evict, or
// nil if none exists. Every call is made under the pool's mutex, so
// policies need no locking of their own against the pool (policies that
// are also called directly by scans, like PBM, synchronize those entry
// points themselves).
type Policy interface {
	Admitted(f *Frame)
	Accessed(f *Frame)
	Removed(f *Frame)
	Victim() *Frame
}

// Stats aggregates pool activity.
type Stats struct {
	Hits        int64
	Misses      int64
	BytesLoaded int64
	Evictions   int64
	// Stalls counts reservation waits: requests that had to wait for
	// pinned or in-flight frames to become evictable.
	Stalls int64
}

// Pool is a byte-budgeted page cache.
type Pool struct {
	r        rt.Runtime
	disk     *iosim.DeviceArray
	policy   Policy
	capacity int64 // bytes

	// mu guards the fields below plus the policy and every frame's pins
	// and loading flag.
	mu       sync.Mutex
	frames   map[storage.PageID]*Frame
	inFlight map[storage.PageID]rt.Event
	stats    Stats
	// nPinned and nLoading count the frames that are pinned and the
	// frames whose read is in flight: what a blocked reservation waits on.
	nPinned, nLoading int

	// freedQ holds one event per blocked reservation, oldest first. A
	// reserver queues its event in the critical section where evictFor
	// decides to stall, and every frame release pops one event per freed
	// frame in its own critical section and fires it after unlocking. A
	// free thus wakes exactly the reservers it can serve, with no
	// thundering herd when the pool is saturated with pinned frames, and
	// in a deterministic order on the simulator.
	freedQ []rt.Event

	// used is the bytes cached, changed only under mu and read without it
	// by Used.
	used atomic.Int64

	// OnAccess, if non-nil, observes every logical page access (hit or
	// miss) in request order; the OPT trace recorder hooks in here. It is
	// called with the pool mutex held, so an observer is never entered
	// concurrently.
	OnAccess func(p *storage.Page)
}

// NewPool creates a pool of the given byte capacity around policy.
func NewPool(r rt.Runtime, disk *iosim.DeviceArray, policy Policy, capacity int64) *Pool {
	if policy == nil {
		panic("buffer: nil policy")
	}
	if capacity <= 0 {
		panic("buffer: capacity must be positive")
	}
	return &Pool{
		r: r, disk: disk, policy: policy, capacity: capacity,
		frames:   make(map[storage.PageID]*Frame),
		inFlight: make(map[storage.PageID]rt.Event),
	}
}

// Capacity returns the pool capacity in bytes.
func (p *Pool) Capacity() int64 { return p.capacity }

// Used returns the bytes currently cached (including in-flight loads).
func (p *Pool) Used() int64 { return p.used.Load() }

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Contains reports whether pg is resident (and fully loaded). On the real
// runtime the answer is advisory: it may be stale by the time the caller
// acts on it (Get handles both outcomes either way).
func (p *Pool) Contains(pg *storage.Page) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[pg.ID]
	return ok && !f.loading
}

// Check verifies the pool's books in one critical section: the frames'
// pins and loading flags agree with the pin and load counts, every
// loading frame has its read in flight, and the byte counter is the
// bytes of the frames held, within the capacity. With idle set — no
// request running — nothing may be pinned, loading or parked either. It
// returns nil or an error naming the pool and the first broken
// invariant.
func (p *Pool) Check(idle bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var resident int64
	var pinned, loading []storage.PageID
	for id, f := range p.frames {
		resident += f.Page.Bytes
		if f.pins > 0 {
			pinned = append(pinned, id)
		}
		if f.loading {
			loading = append(loading, id)
		}
	}
	switch used := p.used.Load(); {
	case len(pinned) != p.nPinned || len(loading) != p.nLoading || len(p.inFlight) != p.nLoading:
		return fmt.Errorf("buffer: %d frames pinned, %d loading and %d reads in flight, but nPinned = %d and nLoading = %d",
			len(pinned), len(loading), len(p.inFlight), p.nPinned, p.nLoading)
	case used != resident || used > p.capacity:
		return fmt.Errorf("buffer: %d bytes used, %d bytes resident, capacity %d", used, resident, p.capacity)
	case idle && len(pinned)+len(loading)+len(p.freedQ) > 0:
		return fmt.Errorf("buffer: at idle, pages %s pinned, pages %s loading and %d reservations parked",
			storage.IDList(pinned), storage.IDList(loading), len(p.freedQ))
	}
	return nil
}

// popFreed takes the events of up to n blocked reservations off the head
// of freedQ, for the caller to fire once it has released the mutex. The
// result aliases freedQ's old head, which later appends and removals
// never write to. Mutex held.
func (p *Pool) popFreed(n int) []rt.Event {
	n = min(n, len(p.freedQ))
	evs := p.freedQ[:n]
	p.freedQ = p.freedQ[n:]
	return evs
}

// fire wakes the reservations popFreed took. Mutex not held.
func fire(evs []rt.Event) {
	for _, ev := range evs {
		ev.Fire()
	}
}

// waitFreed parks the reservation that evictFor queued as ev until a
// frame release pops and fires ev, or its owner q is cancelled (a nil
// owner never is). w is the waiter evictFor took before unlocking, so a
// free that lands before the park still wakes it: on threads w holds the
// event's channel generation, and on the simulator no other process runs
// in between. It parks through q.Wait, so a paced owner's blocked time is
// not counted as its work. Called WITHOUT the pool mutex held.
//
// A cancelled reservation leaves freedQ. If a free had already popped its
// event, the wake is passed on to the next blocked reservation, so none
// is starved by a wake spent on a dead query.
func (p *Pool) waitFreed(q *rt.QueryCtx, ev rt.Event, w rt.Waiter) {
	stop := q.OnCancel(ev.Fire)
	// A simulator Fire with nobody waiting is lost, so an owner already
	// cancelled must not park at all.
	if !q.Cancelled() {
		q.Wait(w)
	}
	stop()
	if !q.Cancelled() {
		return
	}
	var wake []rt.Event
	p.mu.Lock()
	if i := slices.Index(p.freedQ, ev); i >= 0 {
		p.freedQ = slices.Delete(p.freedQ, i, i+1)
	} else {
		wake = p.popFreed(1)
	}
	p.mu.Unlock()
	fire(wake)
}

// Get returns a pinned frame for pg, reading it from disk on a miss (which
// blocks the calling process for the modeled device time). Concurrent
// requests for the same missing page share a single disk read.
func (p *Pool) Get(pg *storage.Page) *Frame {
	f, _ := p.get(nil, pg)
	return f
}

// GetOwner is Get with a lifecycle owner: if q is cancelled before or
// while the reservation blocks, it returns (nil, ErrCancelled) instead of
// parking forever, with no frame pinned; the disk read (if any) carries
// the owner tag so a cancelled owner's queued device reads are skipped. A
// nil owner is a plain Get.
func (p *Pool) GetOwner(q *rt.QueryCtx, pg *storage.Page) (*Frame, error) {
	return p.get(q, pg)
}

// GetIfResident is GetOwner for a page the caller hopes is resident, in
// one visit to the pool: a resident page is pinned and returned, counted
// and reported to the policy like any hit; an absent or still-loading one
// yields (nil, nil) and leaves no trace — the caller then reads it, with
// its read-ahead, through GetRunOwner.
func (p *Pool) GetIfResident(q *rt.QueryCtx, pg *storage.Page) (*Frame, error) {
	p.mu.Lock()
	f, ok := p.frames[pg.ID]
	if !ok || f.loading {
		p.mu.Unlock()
		return nil, nil
	}
	// get turns a dead owner away before it counts a hit. A self-cancel
	// may run here, under the mutex: every cancel hook only fires an
	// event, and none takes the pool mutex.
	if q.Cancelled() {
		p.mu.Unlock()
		return nil, ErrCancelled
	}
	p.hit(f)
	p.mu.Unlock()
	return f, nil
}

// hit pins a resident frame and records the access. Mutex held.
func (p *Pool) hit(f *Frame) {
	p.pin(f)
	p.stats.Hits++
	if p.OnAccess != nil {
		p.OnAccess(f.Page)
	}
	p.policy.Accessed(f)
}

// GetRun returns a pinned frame for run[0] after ensuring every page of
// run is resident: the missing pages of run[1:] are read as one device
// batch per contiguous block stretch, then run[0] as Get reads it. Scans
// use it for per-column read-ahead so a single stream achieves sequential
// bandwidth. Pages run[1:] are admitted unpinned and may be evicted again
// under pressure before use.
func (p *Pool) GetRun(run []*storage.Page) *Frame {
	f, _ := p.GetRunOwner(nil, run)
	return f
}

// GetRunOwner is GetRun with a lifecycle owner (see GetOwner).
func (p *Pool) GetRunOwner(q *rt.QueryCtx, run []*storage.Page) (*Frame, error) {
	if len(run) == 0 {
		panic("buffer: empty run")
	}
	if len(run) > 1 {
		if err := p.loadRun(q, run[1:]); err != nil {
			return nil, err
		}
	}
	return p.get(q, run[0])
}

// loadRun admits the missing pages of run (unpinned), batching contiguous
// missing stretches into single disk reads.
func (p *Pool) loadRun(q *rt.QueryCtx, run []*storage.Page) error {
	var batch []*storage.Page
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := p.loadBatch(q, batch)
		batch = nil
		return err
	}
	for _, pg := range run {
		p.mu.Lock()
		_, present := p.frames[pg.ID]
		p.mu.Unlock()
		if present {
			if err := flush(); err != nil {
				return err
			}
			continue
		}
		if len(batch) > 0 && pg.Block != batch[len(batch)-1].Block+1 {
			if err := flush(); err != nil {
				return err
			}
		}
		batch = append(batch, pg)
	}
	return flush()
}

// loadBatch reads a block-contiguous batch of absent pages, one device
// batch per stretch that is still absent and contiguous when the
// reservation is granted. A remainder cut off by a concurrent admission
// is re-issued as a fresh batch instead of being dropped — GetRun's
// run[1:] pages have no later call that would pick them up.
func (p *Pool) loadBatch(q *rt.QueryCtx, batch []*storage.Page) error {
	for len(batch) > 0 {
		var err error
		batch, _, err = p.loadBatchPrefix(q, batch, false)
		if err != nil {
			return err
		}
	}
	return nil
}

// loadBatchPrefix is the pool's one miss routine: it loads the longest
// still-absent block-contiguous prefix of batch in one device batch and
// returns the unprocessed remainder. The budget check, the absence
// re-check and the admissions are one atomic step (reserve returns
// holding the mutex): the reservation may have blocked, and another
// process may have started loading some of these pages meanwhile. With
// pinHead, batch[0]'s frame is pinned when this call admits it and
// returned as head (nil if another process admitted it first).
func (p *Pool) loadBatchPrefix(q *rt.QueryCtx, batch []*storage.Page, pinHead bool) (rest []*storage.Page, head *Frame, err error) {
	var bytes int64
	for _, pg := range batch {
		bytes += pg.Bytes
	}
	if err := p.reserve(q, bytes); err != nil {
		return nil, nil, err
	}
	ev := p.r.NewEvent()
	// One-element backing arrays keep a one-page miss free of slice
	// allocations; a longer batch grows onto the heap.
	var frameBuf [1]*Frame
	var spanBuf [1]iosim.Span
	frames, spans := frameBuf[:0], spanBuf[:0]
	for i, pg := range batch {
		if _, ok := p.frames[pg.ID]; ok {
			continue
		}
		if n := len(frames); n > 0 && pg.Block != frames[n-1].Page.Block+1 {
			rest = batch[i:] // contiguity broken; re-issue as a new batch
			break
		}
		f := p.admit(pg, ev)
		if pinHead && i == 0 {
			p.pin(f)
			head = f
		}
		frames = append(frames, f)
		spans = p.disk.AppendSpan(spans, pg.Block, pg.Bytes)
	}
	p.mu.Unlock()
	if len(frames) == 0 {
		return rest, nil, nil
	}
	p.disk.ReadSpansOwner(q, spans)
	p.loaded(ev, frames...)
	return rest, head, nil
}

// admit installs a loading frame for the absent page pg: ev is what
// requests for the page wait on until loaded announces the read. Caller
// holds the mutex from its absence check (no blocking in between), so no
// concurrent request can admit the page twice.
func (p *Pool) admit(pg *storage.Page, ev rt.Event) *Frame {
	f := &Frame{Page: pg, loading: true}
	p.inFlight[pg.ID] = ev
	p.frames[pg.ID] = f
	p.stats.Misses++
	p.stats.BytesLoaded += pg.Bytes
	if p.OnAccess != nil {
		p.OnAccess(pg)
	}
	p.used.Add(pg.Bytes)
	p.nLoading++
	return f
}

// loaded ends the read that admitted frames: each becomes resident and
// known to the policy, in batch order, then the requests waiting on the
// read and one blocked reservation are woken, in that order.
func (p *Pool) loaded(ev rt.Event, frames ...*Frame) {
	p.mu.Lock()
	for _, f := range frames {
		f.loading = false
		delete(p.inFlight, f.Page.ID)
		p.policy.Admitted(f)
	}
	p.nLoading -= len(frames)
	wake := p.popFreed(1)
	p.mu.Unlock()
	ev.Fire()
	fire(wake)
}

// get is the shared hit/miss path. It turns a cancelled owner away on
// entry and after every wait for a read in flight, which parks through
// q.Wait like waitFreed; a reservation that blocks is woken by the
// cancellation (see reserve).
func (p *Pool) get(q *rt.QueryCtx, pg *storage.Page) (*Frame, error) {
	if q.Cancelled() {
		return nil, ErrCancelled
	}
	p.mu.Lock()
	for {
		if f, ok := p.frames[pg.ID]; ok {
			if f.loading {
				w := p.inFlight[pg.ID].Waiter()
				p.mu.Unlock()
				q.Wait(w)
				if q.Cancelled() {
					return nil, ErrCancelled
				}
				p.mu.Lock()
				continue // re-check: the frame may have been re-evicted
			}
			p.hit(f)
			p.mu.Unlock()
			return f, nil
		}
		p.mu.Unlock()
		// Miss: this process performs the read, holding a pin on the frame.
		_, f, err := p.loadBatchPrefix(q, []*storage.Page{pg}, true)
		if err != nil || f != nil {
			return f, err
		}
		// The reservation blocked and another process admitted the page.
		p.mu.Lock()
	}
}

// reserve evicts the policy's victims until bytes fit within the
// capacity, blocking until pinned or in-flight frames become evictable
// when the policy has no victim to offer. It panics only when blocking
// cannot help: a request larger than the pool, or a full pool with
// nothing pinned or loading (see evictFor).
//
// Called WITHOUT the pool mutex held, it returns holding it once bytes
// fit, so the caller admits in the critical section that found the room
// and concurrent reservers never overshoot the budget (Check asserts
// it). Cancelling the owner q wakes a blocked reservation (waitFreed),
// and reserve returns ErrCancelled, unlocked, without reserving.
func (p *Pool) reserve(q *rt.QueryCtx, bytes int64) error {
	if bytes > p.capacity {
		panic(fmt.Sprintf("buffer: request of %d bytes exceeds pool capacity %d", bytes, p.capacity))
	}
	p.mu.Lock()
	for p.used.Load()+bytes > p.capacity {
		if q.Cancelled() {
			p.mu.Unlock()
			return ErrCancelled
		}
		if ev, w := p.evictFor(); ev != nil {
			p.mu.Unlock()
			p.waitFreed(q, ev, w)
			p.mu.Lock()
		}
	}
	return nil
}

// evictFor makes room for a reservation that does not fit: it returns a
// nil event when the policy's victim was evicted. When the caller must
// wait for a pinned or in-flight frame instead, it counts the stall and
// queues a new event on freedQ in the same critical section, returning
// the event and a waiter on it for waitFreed: every free that could serve
// the caller lands after it is queued. The pin and load counts are exact
// under the mutex, so a full pool with neither is an accounting error no
// wait can repair. Mutex held.
func (p *Pool) evictFor() (rt.Event, rt.Waiter) {
	v := p.policy.Victim()
	if v == nil {
		if p.nPinned == 0 && p.nLoading == 0 {
			p.mu.Unlock()
			panic(fmt.Sprintf("buffer: pool overcommitted: %d/%d bytes with nothing pinned or loading", p.used.Load(), p.capacity))
		}
		p.stats.Stalls++
		ev := p.r.NewEvent()
		p.freedQ = append(p.freedQ, ev)
		return ev, ev.Waiter()
	}
	if v.Pinned() || v.Loading() {
		p.mu.Unlock()
		panic("buffer: policy returned pinned or loading victim")
	}
	p.stats.Evictions++
	p.drop(v)
	return nil, nil
}

// drop removes the resident, unpinned frame f from the pool and gives its
// bytes back. Mutex held.
func (p *Pool) drop(f *Frame) {
	delete(p.frames, f.Page.ID)
	p.used.Add(-f.Page.Bytes)
	p.policy.Removed(f)
}

// pin marks one more user of f. Mutex held.
func (p *Pool) pin(f *Frame) {
	if f.pins == 0 {
		p.nPinned++
	}
	f.pins++
}

// Unpin releases one pin on f.
func (p *Pool) Unpin(f *Frame) {
	p.mu.Lock()
	if f.pins <= 0 {
		p.mu.Unlock()
		panic("buffer: Unpin without pin")
	}
	f.pins--
	var wake []rt.Event
	if f.pins == 0 {
		p.nPinned--
		wake = p.popFreed(1)
	}
	p.mu.Unlock()
	fire(wake)
}

// InvalidatePages drops the given pages' frames wherever they are
// resident and unpinned — the chunk-invalidation path a checkpoint runs
// when it retires a snapshot's pages. Pinned or in-flight frames are
// left alone: they belong to scans still pinned to the retired
// snapshot, whose pages are immutable and die by pressure once the
// scans finish. Returns the number of frames dropped; each freed frame
// wakes one blocked reservation (see FlushAll for why one each).
func (p *Pool) InvalidatePages(pages []*storage.Page) int {
	p.mu.Lock()
	freed := 0
	for _, pg := range pages {
		if f, ok := p.frames[pg.ID]; ok && !f.Pinned() && !f.Loading() {
			p.drop(f)
			freed++
		}
	}
	wake := p.popFreed(freed)
	p.mu.Unlock()
	fire(wake)
	return freed
}

// FlushAll drops every unpinned resident page (used between experiment
// phases to cold-start the cache). Every freed frame wakes one blocked
// reservation: a single wake-up would strand the rest forever when a
// flush races in-flight admissions, because a woken reserver whose page
// was admitted meanwhile takes the hit path and never passes the wake-up
// on.
func (p *Pool) FlushAll() {
	p.mu.Lock()
	freed := 0
	for _, f := range p.frames {
		if !f.Pinned() && !f.Loading() {
			p.drop(f)
			freed++
		}
	}
	wake := p.popFreed(freed)
	p.mu.Unlock()
	fire(wake)
}
