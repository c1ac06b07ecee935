// Package buffer implements the traditional buffer manager of Figure 1:
// a page cache in front of the simulated disk with a pluggable replacement
// policy. Loading decisions are made by the scan operators that call Get;
// the policy only decides what to evict — exactly the architecture PBM
// slots into without disrupting (§3), in contrast to the Active Buffer
// Manager of Cooperative Scans which takes over loading itself.
//
// The pool is sharded: the frame map, in-flight table, blocked-reservation
// queue, replacement-policy instance, and slice of the byte budget are
// partitioned by PageID hash into N shards, so concurrent scans touch
// disjoint metadata on the hot path. The byte budget itself is global —
// a shard whose reservation exceeds its slice borrows free capacity from
// the others, and eviction under global pressure pays borrowed capacity
// back first (see shard.reserve). A 1-shard pool is bit-identical to the
// historical unsharded implementation.
//
// The pool is runtime-agnostic (internal/rt): each shard's metadata is
// guarded by its own mutex and the global used/pinned/loading counters
// are atomics, so on the real-threaded runtime concurrent scans proceed
// in parallel, serializing only per shard. On the sim runtime exactly one
// process runs at a time, the mutexes are uncontended, and the virtual
// -time trajectory is identical to the historical engine-only code. The
// two runtimes differ in exactly one mechanism: blocked reservations park
// on a deterministic per-shard FIFO of events in sim mode, and on a
// per-shard sync.Cond in real mode (see waitFreed/wakeReservers).
package buffer

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/iosim"
	"repro/internal/rt"
	"repro/internal/storage"
)

// ErrCancelled is returned by the owner-tagged entry points when the
// owning query is cancelled while (or before) a reservation would block:
// the wait point wakes instead of parking forever and no frame is pinned.
// It is rt.ErrCancelled, so errors.Is works across layers.
var ErrCancelled = rt.ErrCancelled

// DefaultShards is the shard count used by serving configurations when
// none is given. Figure-reproduction experiments default to 1 shard (the
// paper's single buffer manager).
const DefaultShards = 8

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
	// stores its page metadata pointer here). With a sharded pool the
	// cookie is owned by the shard's own policy instance.
	PolicyState any
}

// Pinned reports whether the frame is currently pinned by any user.
func (f *Frame) Pinned() bool { return f.pins > 0 }

// Loading reports whether the frame's page is still being read from disk.
func (f *Frame) Loading() bool { return f.loading }

// Policy is a replacement policy plugged into a pool shard. The shard
// calls the lifecycle hooks; Victim must return an unpinned, non-loading
// frame to evict, or nil if none exists. Each shard owns a private
// Policy instance and only ever passes it frames of its own pages, always
// under the shard's mutex, so policies need no locking of their own
// against the pool (policies that are also called directly by scans, like
// PBM, synchronize those entry points themselves).
type Policy interface {
	Name() string
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

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.BytesLoaded += o.BytesLoaded
	s.Evictions += o.Evictions
	s.Stalls += o.Stalls
}

// shard owns one partition of the pool: the frames and in-flight tables
// for the pages hashing to it, a private replacement-policy instance, a
// slice of the byte budget, and the queue of reservations blocked on it.
type shard struct {
	pool   *Pool
	idx    int
	policy Policy
	slice  int64 // this shard's slice of the byte budget

	// mu guards every field below plus the policy instance and the pins
	// and loading flags of this shard's frames.
	mu   sync.Mutex
	used int64

	frames   map[storage.PageID]*Frame
	inFlight map[storage.PageID]rt.Event

	// freedQ holds one event per blocked reservation parked on this
	// shard (sim runtime); each frame release wakes one waiter per freed
	// frame, avoiding a thundering herd when the pool is saturated with
	// pinned frames and keeping the wake order deterministic.
	freedQ []rt.Event

	// cond/waiting are the real runtime's equivalent: blocked
	// reservations wait on the shard's condition variable and every
	// release broadcasts to the shards that have waiters. The broadcast
	// is deliberately wider than the sim FIFO's single hand-off — woken
	// reservers re-check the global budget and re-park, trading a
	// bounded spurious wake-up for simplicity. Lost wake-ups are closed
	// by waitFreed itself: it re-checks the fit predicate after
	// registering (under the shard mutex a waker must also take), so a
	// free that lands between the caller's decision to stall and the
	// park is always observed one way or the other.
	cond    *sync.Cond
	waiting int

	stats Stats
}

// Pool is a byte-budgeted page cache partitioned into shards.
type Pool struct {
	r        rt.Runtime
	disk     *iosim.DeviceArray
	capacity int64        // bytes, global across shards
	used     atomic.Int64 // sum of shard used
	nPinned  atomic.Int64
	nLoading atomic.Int64

	// stalled counts reservations currently parked (or about to park) in
	// waitFreed across all shards; frame frees skip the shard-by-shard
	// broadcast sweep entirely while it is zero, which is the common
	// un-saturated case (real runtime only).
	stalled atomic.Int64
	// freeEpoch counts wake-relevant events — capacity frees, unpins,
	// load completions — on the real runtime. A reserver snapshots it
	// before its eviction attempts; an unchanged epoch at park time
	// proves no such event slipped into the window between those
	// attempts and the park (an unpin frees evictability, not bytes, so
	// the byte-budget re-check alone would miss it and the reserver
	// could sleep beside a perfectly evictable victim).
	freeEpoch atomic.Int64

	shards []*shard

	// OnAccess, if non-nil, observes every logical page access (hit or
	// miss) in request order; the OPT trace recorder hooks in here. It is
	// called with the accessed page's shard mutex held, so an observer is
	// never entered concurrently for pages of the same shard but must
	// tolerate concurrent calls from different shards on the real runtime.
	OnAccess func(p *storage.Page)
}

// NewPool creates a single-shard pool around one policy instance — the
// historical constructor, bit-identical to the pre-sharding behavior.
func NewPool(r rt.Runtime, disk *iosim.DeviceArray, policy Policy, capacity int64) *Pool {
	if policy == nil {
		panic("buffer: nil policy")
	}
	return NewShardedPool(r, disk, func(int) Policy { return policy }, capacity, 1)
}

// NewShardedPool creates a pool of the given byte capacity partitioned
// into shards. factory is called once per shard (with the shard index)
// so every shard owns a private policy instance; use FactoryOf for the
// registered built-in policies.
func NewShardedPool(r rt.Runtime, disk *iosim.DeviceArray, factory func(shard int) Policy, capacity int64, shards int) *Pool {
	if capacity <= 0 {
		panic("buffer: capacity must be positive")
	}
	if shards <= 0 {
		shards = 1
	}
	p := &Pool{r: r, disk: disk, capacity: capacity, shards: make([]*shard, shards)}
	base := capacity / int64(shards)
	rem := capacity % int64(shards)
	for i := range p.shards {
		slice := base
		if int64(i) < rem {
			slice++
		}
		pol := factory(i)
		if pol == nil {
			panic("buffer: policy factory returned nil")
		}
		s := &shard{
			pool:     p,
			idx:      i,
			policy:   pol,
			slice:    slice,
			frames:   make(map[storage.PageID]*Frame),
			inFlight: make(map[storage.PageID]rt.Event),
		}
		s.cond = sync.NewCond(&s.mu)
		p.shards[i] = s
	}
	return p
}

// ShardFor returns the index of the shard that owns id.
func (p *Pool) ShardFor(id storage.PageID) int {
	if len(p.shards) == 1 {
		return 0
	}
	// Fibonacci hashing spreads the sequential PageIDs of a column scan
	// across shards.
	h := uint64(id) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return int(h % uint64(len(p.shards)))
}

func (p *Pool) shardOf(id storage.PageID) *shard { return p.shards[p.ShardFor(id)] }

// Shards returns the number of shards.
func (p *Pool) Shards() int { return len(p.shards) }

// Policy returns shard 0's replacement policy (the pool's only policy
// instance when unsharded).
func (p *Pool) Policy() Policy { return p.shards[0].policy }

// ShardPolicy returns shard i's replacement-policy instance.
func (p *Pool) ShardPolicy(i int) Policy { return p.shards[i].policy }

// Capacity returns the pool capacity in bytes.
func (p *Pool) Capacity() int64 { return p.capacity }

// Used returns the bytes currently cached (including in-flight loads),
// summed over all shards.
func (p *Pool) Used() int64 { return p.used.Load() }

// Stats returns a snapshot of the counters, summed over all shards.
func (p *Pool) Stats() Stats {
	var s Stats
	for _, sh := range p.shards {
		sh.mu.Lock()
		s.add(sh.stats)
		sh.mu.Unlock()
	}
	return s
}

// ShardStats returns a snapshot of each shard's counters.
func (p *Pool) ShardStats() []Stats {
	out := make([]Stats, len(p.shards))
	for i, sh := range p.shards {
		sh.mu.Lock()
		out[i] = sh.stats
		sh.mu.Unlock()
	}
	return out
}

// Contains reports whether pg is resident (and fully loaded). On the real
// runtime the answer is advisory: it may be stale by the time the caller
// acts on it (Get handles both outcomes either way).
func (p *Pool) Contains(pg *storage.Page) bool {
	s := p.shardOf(pg.ID)
	s.mu.Lock()
	f, ok := s.frames[pg.ID]
	resident := ok && !f.loading
	s.mu.Unlock()
	return resident
}

// wakeReservers releases blocked reservations after n frames were freed.
// Sim runtime: pop and fire up to n parked events, draining this shard's
// FIFO first and then the other shards' in ring order — the byte budget
// is global (capacity borrowing), so capacity freed here may be exactly
// what a reservation parked on another shard is waiting for; only the
// queues are partitioned. Real runtime: broadcast on the condition
// variable of every shard that has waiters (see the field comment).
// Must be called WITHOUT any shard mutex held.
func (s *shard) wakeReservers(n int) {
	if n <= 0 {
		return
	}
	p := s.pool
	if p.r.Real() {
		// Record the event before deciding whether anyone needs a
		// broadcast: waitFreed registers in p.stalled before re-checking
		// its predicate (which includes this epoch), so whichever side
		// runs second observes the other — a zero read here means every
		// current reserver will notice the epoch bump (or the freed
		// bytes) on its own park-time re-check, and the shard-by-shard
		// sweep can be skipped without stranding a waiter.
		p.freeEpoch.Add(1)
		if p.stalled.Load() == 0 {
			return
		}
		for i := 0; i < len(p.shards); i++ {
			t := p.shards[(s.idx+i)%len(p.shards)]
			t.mu.Lock()
			if t.waiting > 0 {
				t.cond.Broadcast()
			}
			t.mu.Unlock()
		}
		return
	}
	for i := 0; i < len(p.shards) && n > 0; i++ {
		t := p.shards[(s.idx+i)%len(p.shards)]
		for n > 0 && len(t.freedQ) > 0 {
			ev := t.freedQ[0]
			t.freedQ = t.freedQ[1:]
			ev.Fire()
			n--
		}
	}
}

// waitFreed blocks the caller until a frame release wakes it, or returns
// immediately if proceed already holds (capacity fits, or a wake-relevant
// event landed since the caller's eviction attempts — see freeEpoch).
// Called WITHOUT the shard mutex held.
//
// Real runtime: the caller's decision to stall was made outside any
// lock, so a concurrent free may have landed (and found nobody to wake)
// before we park — re-checking proceed after registering in p.stalled
// and taking the shard mutex closes that window: a waker either sees our
// registration (and broadcasts under this mutex, which cannot happen
// until cond.Wait has parked us) or bumped the epoch / freed the bytes
// before our re-check (which then observes it and returns).
//
// A non-nil owner makes the park cancellation-aware: cancelling q wakes
// the waiter (the caller's loop then observes the cancellation and bails
// with ErrCancelled). Real runtime: the cancel hook broadcasts under the
// shard mutex, closing the same register-then-park window as above. Sim
// runtime: the hook fires the parked event; if it was still sitting in
// freedQ the entry is removed, and if a genuine free had already consumed
// it the wake is passed on so no other blocked reservation is starved by
// a wake spent on a dead query.
func (s *shard) waitFreed(q *rt.QueryCtx, proceed func() bool) {
	if s.pool.r.Real() {
		var stop func()
		if q != nil {
			stop = q.OnCancel(func() {
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			})
			defer stop()
		}
		s.pool.stalled.Add(1)
		s.mu.Lock()
		if proceed() {
			s.mu.Unlock()
			s.pool.stalled.Add(-1)
			return
		}
		s.waiting++
		s.cond.Wait()
		s.waiting--
		s.mu.Unlock()
		s.pool.stalled.Add(-1)
		return
	}
	if q == nil {
		ev := s.pool.r.NewEvent()
		s.freedQ = append(s.freedQ, ev)
		ev.Wait()
		return
	}
	// Sim events are not sticky (a Fire with no waiter is lost), so a
	// query found cancelled here must not park at all: the caller's loop
	// re-observes the cancellation and bails. Between this check and
	// ev.Wait no other sim process runs, so the hook below can only fire
	// while we are actually parked.
	if q.Cancelled() {
		return
	}
	ev := s.pool.r.NewEvent()
	s.freedQ = append(s.freedQ, ev)
	stop := q.OnCancel(ev.Fire)
	ev.Wait()
	stop()
	if q.Cancelled() {
		removed := false
		for i, e := range s.freedQ {
			if e == ev {
				s.freedQ = append(s.freedQ[:i], s.freedQ[i+1:]...)
				removed = true
				break
			}
		}
		if !removed {
			// A real free woke us but we are abandoning the reservation:
			// hand the wake to the next blocked reservation.
			s.wakeReservers(1)
		}
	}
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
// one visit to its shard: a resident page is pinned and returned, counted
// and reported to the policy like any hit; an absent or still-loading one
// yields (nil, nil) and leaves no trace — the caller then reads it, with
// its read-ahead, through GetRunOwner.
func (p *Pool) GetIfResident(q *rt.QueryCtx, pg *storage.Page) (*Frame, error) {
	s := p.shardOf(pg.ID)
	s.mu.Lock()
	f, ok := s.frames[pg.ID]
	if !ok || f.loading {
		s.mu.Unlock()
		return nil, nil
	}
	// get turns a dead owner away before it counts a hit. The shard mutex
	// is held here and a self-cancel runs hooks that may need it, so look
	// without side effects and let Cancelled fire the deadline outside.
	if q.Cause() != rt.CauseNone || q.Expired(p.r.Now()) {
		s.mu.Unlock()
		q.Cancelled()
		return nil, ErrCancelled
	}
	s.hit(f)
	s.mu.Unlock()
	return f, nil
}

// hit pins a resident frame and records the access. Shard mutex held.
func (s *shard) hit(f *Frame) {
	s.pin(f)
	s.stats.Hits++
	if s.pool.OnAccess != nil {
		s.pool.OnAccess(f.Page)
	}
	s.policy.Accessed(f)
}

// GetRun returns a pinned frame for run[0] after ensuring every page of
// run is resident, reading all missing pages in one sequential disk
// request per contiguous block run. Scans use it for per-column read-ahead
// so a single stream achieves sequential bandwidth. Pages run[1:] are
// admitted unpinned and may be evicted again under pressure before use.
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
		s := p.shardOf(pg.ID)
		s.mu.Lock()
		_, present := s.frames[pg.ID]
		s.mu.Unlock()
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

// loadBatch reads a block-contiguous batch of absent pages, one disk
// request per stretch that is still absent and contiguous when the
// reservation is granted. A remainder cut off by a concurrent admission
// is re-issued as a fresh batch instead of being dropped — GetRun's
// run[1:] pages have no later call that would pick them up.
func (p *Pool) loadBatch(q *rt.QueryCtx, batch []*storage.Page) error {
	for len(batch) > 0 {
		var err error
		batch, err = p.loadBatchPrefix(q, batch)
		if err != nil {
			return err
		}
	}
	return nil
}

// loadBatchPrefix loads the longest still-absent block-contiguous prefix
// of batch in one disk request and returns the unprocessed remainder.
// The absence re-check and the admission are a single atomic step per
// page (under the page's shard mutex): the reservation may have blocked,
// and another process may have started loading some of these pages
// meanwhile — or, on the real runtime, may do so between any two pages.
func (p *Pool) loadBatchPrefix(q *rt.QueryCtx, batch []*storage.Page) ([]*storage.Page, error) {
	var bytes int64
	for _, pg := range batch {
		bytes += pg.Bytes
	}
	// Reserve against the head page's shard: the byte budget is global,
	// the shard only anchors victim preference and the stall queue.
	if err := p.shardOf(batch[0].ID).reserve(q, bytes); err != nil {
		return nil, err
	}
	ev := p.r.NewEvent()
	var frames []*Frame
	var rest []*storage.Page
	for i, pg := range batch {
		s := p.shardOf(pg.ID)
		s.mu.Lock()
		if _, ok := s.frames[pg.ID]; ok {
			s.mu.Unlock()
			continue
		}
		if n := len(frames); n > 0 && pg.Block != frames[n-1].Page.Block+1 {
			s.mu.Unlock()
			rest = batch[i:] // contiguity broken; re-issue as a new batch
			break
		}
		frames = append(frames, s.admit(pg, ev))
		s.mu.Unlock()
	}
	if len(frames) == 0 {
		return rest, nil
	}
	// Issue the batch split at stripe-chunk boundaries, one sub-read per
	// owning device with its exact page-byte volume; the devices transfer
	// concurrently and ReadSpans returns when the last one completes. On a
	// single-device array the batch stays one request, as it always was.
	var spans []iosim.Span
	for i, f := range frames {
		pg := f.Page
		if i > 0 && !p.disk.StripeBoundary(pg.Block) {
			s := &spans[len(spans)-1]
			s.Blocks++
			s.Bytes += pg.Bytes
			continue
		}
		spans = append(spans, iosim.Span{Block: pg.Block, Blocks: 1, Bytes: pg.Bytes})
	}
	p.disk.ReadSpansOwner(q, spans)
	p.loaded(ev, frames...)
	return rest, nil
}

// admit installs a loading frame for the absent page pg — the miss
// bookkeeping of every load: ev is what requests for the page wait on
// until loaded announces the read. Caller holds s.mu from its absence
// check (no blocking in between), so no concurrent request can admit the
// page twice.
func (s *shard) admit(pg *storage.Page, ev rt.Event) *Frame {
	p := s.pool
	f := &Frame{Page: pg, loading: true}
	s.inFlight[pg.ID] = ev
	s.frames[pg.ID] = f
	s.used += pg.Bytes
	s.stats.Misses++
	s.stats.BytesLoaded += pg.Bytes
	if p.OnAccess != nil {
		p.OnAccess(pg)
	}
	p.used.Add(pg.Bytes)
	p.nLoading.Add(1)
	return f
}

// loaded ends the read that admitted frames: each becomes resident and
// known to its shard's policy, then the requests waiting on the read and
// one blocked reservation are woken, in that order.
func (p *Pool) loaded(ev rt.Event, frames ...*Frame) {
	for _, f := range frames {
		s := p.shardOf(f.Page.ID)
		s.mu.Lock()
		f.loading = false
		delete(s.inFlight, f.Page.ID)
		s.policy.Admitted(f)
		s.mu.Unlock()
		p.nLoading.Add(-1)
	}
	ev.Fire()
	p.shardOf(frames[0].Page.ID).wakeReservers(1)
}

// get is the shared hit/miss path. Cancellation is only checked outside
// the shard mutex: the lazy deadline check inside QueryCtx.Cancelled can
// run cancel hooks, and a hook registered by another process of the same
// query (an XChg sibling parked in waitFreed) may need this very mutex.
func (p *Pool) get(q *rt.QueryCtx, pg *storage.Page) (*Frame, error) {
	s := p.shardOf(pg.ID)
	if q != nil && q.Cancelled() {
		return nil, ErrCancelled
	}
	s.mu.Lock()
	for {
		if f, ok := s.frames[pg.ID]; ok {
			if f.loading {
				w := s.inFlight[pg.ID].Waiter()
				s.mu.Unlock()
				w.Wait()
				if q != nil && q.Cancelled() {
					return nil, ErrCancelled
				}
				s.mu.Lock()
				continue // re-check: the frame may have been re-evicted
			}
			s.hit(f)
			s.mu.Unlock()
			return f, nil
		}
		s.mu.Unlock()
		if err := s.reserve(q, pg.Bytes); err != nil {
			return nil, err
		}
		s.mu.Lock()
		// reserve may block: another process may have admitted the page.
		if _, ok := s.frames[pg.ID]; ok {
			continue
		}
		break
	}

	// Miss: this process performs the read, holding a pin on the frame.
	ev := p.r.NewEvent()
	f := s.admit(pg, ev)
	s.pin(f)
	s.mu.Unlock()
	p.disk.ReadOwner(q, pg.Block, 1, pg.Bytes)
	p.loaded(ev, f)
	return f, nil
}

// reserve evicts victims until bytes fit within the global capacity,
// blocking until pinned or in-flight frames become evictable when no
// policy has a victim to offer. A reservation larger than the shard's
// slice of the budget simply borrows free capacity from the other shards;
// eviction only starts when the pool as a whole is full, first from this
// shard, then — paying borrowed capacity back — from shards over their
// slice, then from the rest in ring order. It panics only when blocking
// cannot help: a request larger than the pool, or nothing pinned or
// loading anywhere.
//
// The budget check is advisory on the real runtime: concurrent reservers
// can each see the last free bytes and both admit, overshooting the
// budget by at most one in-flight request per shard. The budget is
// bookkeeping (page payloads live in memory regardless), and the
// overshoot is paid back by the very next reservation's evictions.
// Called WITHOUT the shard mutex held.
//
// A non-nil owner turns a blocked reservation into a cancellable one:
// cancelling q wakes the park (waitFreed) and reserve returns
// ErrCancelled without reserving.
func (s *shard) reserve(q *rt.QueryCtx, bytes int64) error {
	p := s.pool
	if bytes > p.capacity {
		panic(fmt.Sprintf("buffer: request of %d bytes exceeds pool capacity %d", bytes, p.capacity))
	}
	idleSpins := 0
	for p.used.Load()+bytes > p.capacity {
		if q != nil && q.Cancelled() {
			return ErrCancelled
		}
		// Snapshot the wake epoch before trying to evict: any unpin,
		// free, or load completion after this point bumps it, and the
		// park-time predicate below treats a bump as "retry eviction"
		// (the event may have made a victim available without changing
		// any byte counter).
		epoch := p.freeEpoch.Load()
		if s.evictOne() {
			idleSpins = 0
			continue
		}
		if p.evictFromOthers(s) {
			idleSpins = 0
			continue
		}
		if p.nPinned.Load() == 0 && p.nLoading.Load() == 0 {
			if p.r.Real() {
				// The counters are updated outside the shard mutexes, so a
				// concurrent admission can be mid-flight; back off and
				// re-check instead of declaring overcommit. Persistent
				// emptiness means a real accounting bug: fail loudly.
				if idleSpins++; idleSpins < 10000 {
					p.r.Sleep(50 * time.Microsecond)
					continue
				}
			}
			panic(fmt.Sprintf("buffer: pool overcommitted: %d/%d bytes with nothing pinned or loading", p.used.Load(), p.capacity))
		}
		s.mu.Lock()
		s.stats.Stalls++
		s.mu.Unlock()
		s.waitFreed(q, func() bool {
			return p.used.Load()+bytes <= p.capacity || p.freeEpoch.Load() != epoch || q.Cause() != rt.CauseNone
		})
	}
	return nil
}

// evictOne removes one victim offered by this shard's policy, reporting
// whether one was available.
func (s *shard) evictOne() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictOneLocked()
}

func (s *shard) evictOneLocked() bool {
	v := s.policy.Victim()
	if v == nil {
		return false
	}
	if v.Pinned() || v.Loading() {
		panic("buffer: policy returned pinned or loading victim")
	}
	delete(s.frames, v.Page.ID)
	s.used -= v.Page.Bytes
	s.pool.used.Add(-v.Page.Bytes)
	s.stats.Evictions++
	s.policy.Removed(v)
	return true
}

// evictFromOthers tries the other shards for a victim on behalf of s:
// shards over their budget slice first (borrowed capacity is paid back
// before anyone else is disturbed), then the rest, in ring order from s.
// Shards are locked one at a time, so cross-shard eviction can never
// deadlock against another shard's own reservation.
func (p *Pool) evictFromOthers(s *shard) bool {
	n := len(p.shards)
	for pass := 0; pass < 2; pass++ {
		for i := 1; i < n; i++ {
			t := p.shards[(s.idx+i)%n]
			t.mu.Lock()
			over := t.used > t.slice
			if (pass == 0) != over {
				t.mu.Unlock()
				continue
			}
			ok := t.evictOneLocked()
			t.mu.Unlock()
			if ok {
				return true
			}
		}
	}
	return false
}

// pin marks one more user of f. Caller holds s.mu.
func (s *shard) pin(f *Frame) {
	if f.pins == 0 {
		s.pool.nPinned.Add(1)
	}
	f.pins++
}

// Unpin releases one pin on f.
func (p *Pool) Unpin(f *Frame) {
	s := p.shardOf(f.Page.ID)
	s.mu.Lock()
	if f.pins <= 0 {
		s.mu.Unlock()
		panic("buffer: Unpin without pin")
	}
	f.pins--
	freed := f.pins == 0
	s.mu.Unlock()
	if freed {
		p.nPinned.Add(-1)
		s.wakeReservers(1)
	}
}

// InvalidatePages drops the given pages' frames wherever they are
// resident and unpinned — the chunk-invalidation path a checkpoint runs
// when it retires a snapshot's pages. Pinned or in-flight frames are
// left alone: they belong to scans still pinned to the retired
// snapshot, whose pages are immutable and die by pressure once the
// scans finish. Returns the number of frames dropped; each freed frame
// wakes one blocked reservation (see FlushAll for why one each).
func (p *Pool) InvalidatePages(pages []*storage.Page) int {
	byShard := make(map[*shard][]*storage.Page)
	for _, pg := range pages {
		s := p.shardOf(pg.ID)
		byShard[s] = append(byShard[s], pg)
	}
	dropped := 0
	for s, pgs := range byShard {
		s.mu.Lock()
		freed := 0
		for _, pg := range pgs {
			f, ok := s.frames[pg.ID]
			if !ok || f.Pinned() || f.Loading() {
				continue
			}
			delete(s.frames, pg.ID)
			s.used -= f.Page.Bytes
			p.used.Add(-f.Page.Bytes)
			s.policy.Removed(f)
			freed++
		}
		s.mu.Unlock()
		s.wakeReservers(freed)
		dropped += freed
	}
	return dropped
}

// FlushAll drops every unpinned resident page (used between experiment
// phases to cold-start the cache). Every freed frame wakes one blocked
// reservation: a single wake-up would strand the rest forever when a
// flush races in-flight admissions, because a woken reserver whose page
// was admitted meanwhile takes the hit path and never passes the wake-up
// on.
func (p *Pool) FlushAll() {
	for _, s := range p.shards {
		s.mu.Lock()
		freed := 0
		for id, f := range s.frames {
			if f.Pinned() || f.Loading() {
				continue
			}
			delete(s.frames, id)
			s.used -= f.Page.Bytes
			p.used.Add(-f.Page.Bytes)
			s.policy.Removed(f)
			freed++
		}
		s.mu.Unlock()
		s.wakeReservers(freed)
	}
}
