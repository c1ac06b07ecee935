// Package abm implements Cooperative Scans (Zukowski et al., VLDB 2007)
// matured per §2 of the paper: an Active Buffer Manager that owns the
// buffer pool and makes all loading, delivery and eviction decisions at
// chunk granularity, delivering data to CScan operators out of order to
// maximize sharing.
//
// Chunks are logical ranges of tuples (SIDs), not sets of pages: in a
// column store each column maps a chunk to a very different number of
// pages (§2). The ABM scheduler runs as its own simulated process and
// uses the four relevance functions of the framework. All four read one
// score, chunk.relevance(): how many scans still want the chunk, with a
// bonus for chunks in the snapshot-shared prefix (§2.1).
//
//   - QueryRelevance (chooseLoad): which CScan to serve next — starved
//     queries first, then queries with the least data remaining (favor
//     short queries).
//   - LoadRelevance (chooseLoad, in the same pass): which chunk to load
//     for it — the highest-scoring chunk it can load.
//   - UseRelevance (useChunk): which cached chunk to hand a CScan — the
//     lowest-scoring one, which fewest other scans want, so it becomes
//     evictable sooner.
//   - KeepRelevance (makeRoom): which chunk to evict — the lowest-scoring
//     cached chunk, evicted only if it scores below the pending load.
//
// The package also implements the production-hardening described in §2.1
// and §2.3: shared/local chunk marking from longest common snapshot
// prefixes and the four registration cases for snapshot/version changes.
// §2.3's in-order delivery mode is not offered: every plan here tolerates
// out-of-order chunks, and forcing order cost the §4.1 point 23–32% more
// I/O (README "Knob verdicts").
package abm

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/iosim"
	"repro/internal/rt"
	"repro/internal/storage"
)

// Config parameterizes the ABM.
type Config struct {
	// ChunkTuples is the chunk granularity in tuples.
	ChunkTuples int64
	// Capacity is the buffer budget in bytes (ABM owns the full pool,
	// §2.3).
	Capacity int64
}

// DefaultChunkTuples is the default chunk granularity.
const DefaultChunkTuples = 8192

// sharedBonus is what being in the snapshot-shared prefix (§2.1) adds to
// a chunk's relevance.
const sharedBonus = 0.5

// Stats aggregates ABM activity.
type Stats struct {
	BytesLoaded  int64
	ChunksLoaded int64
	BytesEvicted int64
	Deliveries   int64
	BlockedLoads int64 // scheduler rounds where eviction could not make room
}

type tableKey struct {
	table   *storage.Table
	version int
}

// residentPage tracks one ABM-cached page.
type residentPage struct {
	page *storage.Page
	pins int
}

// chunk is the ABM metadata for one logical tuple range of a table
// version.
type chunk struct {
	tm     *tableMeta
	idx    int
	shared bool // in the longest snapshot prefix shared by >=2 scans

	interest int // scans that still need this chunk delivered
	loading  bool
	owned    []*residentPage // pages whose load this chunk triggered
}

func (c *chunk) lo() int64 { return int64(c.idx) * c.tm.abm.cfg.ChunkTuples }
func (c *chunk) hi() int64 {
	h := c.lo() + c.tm.abm.cfg.ChunkTuples
	if h > c.tm.maxTuples {
		h = c.tm.maxTuples
	}
	return h
}

// tableMeta is the ABM metadata for one (table, version) pair.
type tableMeta struct {
	abm       *ABM
	key       tableKey
	maxTuples int64
	chunks    []*chunk
	scans     []*CScan
}

// ABM is the Active Buffer Manager. All methods must be called from
// processes of the runtime it was created on. The scheduler loop runs as
// its own process: a cooperative simulated process on the sim runtime, a
// real background goroutine on the real runtime — in the latter case the
// instance mutex serializes it against the CScan consumers, and is
// released across disk transfers so consumers keep draining cached
// chunks while a load is in flight.
type ABM struct {
	r    rt.Runtime
	disk *iosim.DeviceArray
	cfg  Config
	// pace is the scheduler thread's pacing handle: the owner its chunk
	// loads wait out their device time on. On the real runtime a load's
	// wait moves the handle's modelled clock, slept in quantum lumps (see
	// rt.QueryCtx.Fork) instead of one timer sleep per chunk; on the
	// simulator it is unpaced, and a wait is exactly the SleepUntil a nil
	// owner makes.
	// Never cancelled, so no load is skipped.
	pace *rt.QueryCtx

	// mu guards all chunk/table/residency state below. Uncontended in sim
	// mode (single running process).
	mu       sync.Mutex
	tables   map[tableKey]*tableMeta
	tabOrder []*tableMeta
	resident map[storage.PageID]*residentPage
	used     int64

	work    rt.Event
	stopped bool
	stats   Stats
	// pinnedDeliveries counts outstanding (un-Released) deliveries; used
	// by the scheduler's liveness safeguard.
	pinnedDeliveries int

	// OnLoad, if non-nil, observes every page load (trace hook).
	OnLoad func(p *storage.Page)
}

// New creates an ABM and starts its scheduler process on the runtime.
func New(r rt.Runtime, disk *iosim.DeviceArray, cfg Config) *ABM {
	if cfg.ChunkTuples <= 0 {
		cfg.ChunkTuples = DefaultChunkTuples
	}
	if cfg.Capacity <= 0 {
		panic("abm: capacity must be positive")
	}
	a := &ABM{
		r:        r,
		disk:     disk,
		cfg:      cfg,
		tables:   make(map[tableKey]*tableMeta),
		resident: make(map[storage.PageID]*residentPage),
		pace:     rt.NewQueryCtx(r).Fork(),
	}
	a.work = r.NewEvent()
	r.Go("abm-scheduler", a.run)
	return a
}

// Stats returns a snapshot of the counters.
func (a *ABM) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Used returns the resident byte volume.
func (a *ABM) Used() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// Check verifies the ABM's books in one critical section: the resident
// pages add up to the bytes used, no page is pinned without a delivery
// outstanding, and every chunk's interest counts exactly the registered
// scans that still need it. With idle set — no scan running — no page
// may be pinned, no delivery unreleased, no chunk loading and no scan
// registered. It returns nil or an error naming the ABM and the first
// broken invariant.
func (a *ABM) Check(idle bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var resident int64
	var pinned []storage.PageID
	for id, rp := range a.resident {
		resident += rp.page.Bytes
		if rp.pins > 0 {
			pinned = append(pinned, id)
		}
	}
	switch {
	case resident != a.used:
		return fmt.Errorf("abm: %d bytes used, %d bytes resident", a.used, resident)
	case len(pinned) > 0 && a.pinnedDeliveries == 0 || idle && a.pinnedDeliveries != 0:
		return fmt.Errorf("abm: %d deliveries unreleased, pages %s pinned", a.pinnedDeliveries, storage.IDList(pinned))
	}
	for _, tm := range a.tabOrder {
		var miscounted, loading []int
		for i, c := range tm.chunks {
			want := 0
			for _, cs := range tm.scans {
				if cs.need[i] {
					want++
				}
			}
			if c.interest != want {
				miscounted = append(miscounted, i)
			}
			if c.loading {
				loading = append(loading, i)
			}
		}
		switch name := fmt.Sprintf("%s v%d", tm.key.table.Name, tm.key.version); {
		case len(miscounted) > 0:
			return fmt.Errorf("abm: %s: the interest of chunks %s is not the number of scans needing them", name, storage.IDList(miscounted))
		case idle && len(loading)+len(tm.scans) > 0:
			return fmt.Errorf("abm: %s: at idle, chunks %s loading and %d scans registered", name, storage.IDList(loading), len(tm.scans))
		}
	}
	return nil
}

// Stop shuts the scheduler down once all CScans are unregistered.
func (a *ABM) Stop() {
	a.mu.Lock()
	a.stopped = true
	a.mu.Unlock()
	a.work.Fire()
}

// CScan is a registered cooperative scan.
type CScan struct {
	abm    *ABM
	tm     *tableMeta
	snap   *storage.Snapshot
	sorted []int // the scan's columns, sorted for page walks

	need      []bool // per chunk: interested and not yet delivered
	remaining int

	avail rt.Event // fired when a chunk of interest becomes cached

	// qctx is the owning query's lifecycle handle (nil when the scan has
	// no lifecycle, the historical behavior): a cancelled owner makes
	// GetChunk return ok=false instead of blocking, and the scheduler
	// stops choosing this scan so no further chunks are loaded on its
	// behalf. GetChunk parks through it (rt.QueryCtx.Wait), so when it is
	// the scan thread's pacing fork the wait is not counted as its work.
	qctx *rt.QueryCtx
}

// Bind attaches the owning query's lifecycle handle. Call once, right
// after RegisterCScan, before the first GetChunk. RegisterCScan has
// already published the scan to the loader, which reads the handle when
// it chooses whom to load for, so the write goes under the ABM's mutex.
func (cs *CScan) Bind(q *rt.QueryCtx) {
	cs.abm.mu.Lock()
	cs.qctx = q
	cs.abm.mu.Unlock()
}

// SIDRange is a half-open range of stable tuple positions.
type SIDRange struct{ Lo, Hi int64 }

// RegisterCScan registers a scan over the given snapshot, columns and SID
// ranges; the paper's RegisterCScan. Chunks arrive out of order. inOrder
// must be false: the in-order delivery mode was removed, and the parameter
// stays only for callers compiled against the old signature.
func (a *ABM) RegisterCScan(snap *storage.Snapshot, cols []int, ranges []SIDRange, inOrder bool) *CScan {
	if inOrder {
		panic("abm: in-order chunk delivery was removed; CScans deliver out of order")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	tm := a.tableMetaFor(snap)
	cs := &CScan{
		abm:    a,
		tm:     tm,
		snap:   snap,
		sorted: append([]int(nil), cols...),
		avail:  a.r.NewEvent(),
		need:   make([]bool, len(tm.chunks)),
	}
	sort.Ints(cs.sorted)
	for _, r := range ranges {
		if r.Lo < 0 || r.Hi > snap.NumTuples() || r.Lo > r.Hi {
			panic(fmt.Sprintf("abm: bad SID range [%d,%d)", r.Lo, r.Hi))
		}
		if r.Lo == r.Hi {
			continue
		}
		first := int(r.Lo / a.cfg.ChunkTuples)
		last := int((r.Hi - 1) / a.cfg.ChunkTuples)
		for i := first; i <= last; i++ {
			if !cs.need[i] {
				cs.need[i] = true
				cs.remaining++
				tm.chunks[i].interest++
			}
		}
	}
	tm.scans = append(tm.scans, cs)
	tm.remarkShared()
	a.work.Fire()
	return cs
}

// tableMetaFor implements the four registration cases (i)–(iv) of §2.1:
// fresh table, identical snapshot, common-prefix snapshot (all the same
// (table,version) key, possibly extended), or a new table version.
func (a *ABM) tableMetaFor(snap *storage.Snapshot) *tableMeta {
	key := tableKey{table: snap.Table(), version: snap.Version()}
	tm, ok := a.tables[key]
	if !ok {
		tm = &tableMeta{abm: a, key: key}
		a.tables[key] = tm
		a.tabOrder = append(a.tabOrder, tm)
		a.dropStaleVersions(key.table, key.version)
	}
	if snap.NumTuples() > tm.maxTuples {
		tm.maxTuples = snap.NumTuples()
		want := int((tm.maxTuples + a.cfg.ChunkTuples - 1) / a.cfg.ChunkTuples)
		for len(tm.chunks) < want {
			tm.chunks = append(tm.chunks, &chunk{tm: tm, idx: len(tm.chunks)})
		}
		for _, cs := range tm.scans {
			for len(cs.need) < len(tm.chunks) {
				cs.need = append(cs.need, false)
			}
		}
	}
	return tm
}

// InvalidateVersions proactively runs the stale-version housekeeping
// for t: relevance metadata and cached chunks of versions superseded by
// current are destroyed as soon as no scan uses them. Checkpoints call
// it when they retire a snapshot, instead of waiting for the next
// registration to notice; versions still held by running scans survive
// until those scans unregister.
func (a *ABM) InvalidateVersions(t *storage.Table, current int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.dropStaleVersions(t, current)
}

// dropStaleVersions destroys metadata (and evicts pages) of older
// versions of the table that no scan uses anymore — the checkpoint
// housekeeping of §2.1.
func (a *ABM) dropStaleVersions(t *storage.Table, current int) {
	keep := a.tabOrder[:0]
	for _, tm := range a.tabOrder {
		if tm.key.table == t && tm.key.version != current && len(tm.scans) == 0 {
			for _, c := range tm.chunks {
				a.evictChunk(c)
			}
			delete(a.tables, tm.key)
			continue
		}
		keep = append(keep, tm)
	}
	a.tabOrder = keep
}

// remarkShared recomputes shared/local chunk marking: the longest prefix
// of tuples covered by pages common to at least two registered scans'
// snapshots (§2.1). Chunks fully inside the prefix are shared. Scans of
// one snapshot share all of it, so pages are compared only between the
// distinct snapshots held — in a read-only run there is one.
func (tm *tableMeta) remarkShared() {
	type heldSnap struct {
		snap  *storage.Snapshot
		scans int
	}
	held := make([]heldSnap, 0, 4)
scans:
	for _, cs := range tm.scans {
		for i := range held {
			if held[i].snap == cs.snap {
				held[i].scans++
				continue scans
			}
		}
		held = append(held, heldSnap{cs.snap, 1})
	}
	var best int64
	for i, h := range held {
		if h.scans >= 2 {
			best = max(best, h.snap.SharedPrefixTuples(h.snap))
		}
		for _, o := range held[i+1:] {
			best = max(best, h.snap.SharedPrefixTuples(o.snap))
		}
	}
	limit := int(best / tm.abm.cfg.ChunkTuples) // chunks fully below the prefix bound
	for i, c := range tm.chunks {
		c.shared = i < limit
	}
}

// Delivery is one chunk handed to a CScan. The receiver processes the
// tuple range and must call Release when done.
type Delivery struct {
	cs    *CScan
	Chunk int
	Lo    int64 // SID range of the chunk
	Hi    int64
	pages []*residentPage
}

// GetChunk blocks until a chunk of interest is cached and returns it; the
// paper's GetChunk. It returns ok=false when every registered range has
// been delivered — or when the owning query is cancelled, so a dead
// consumer never parks on the avail event forever (the caller then closes
// the scan, whose Unregister releases the interest accounting).
func (cs *CScan) GetChunk() (*Delivery, bool) {
	a := cs.abm
	a.mu.Lock()
	for {
		if cs.qctx.Cancelled() || cs.remaining == 0 {
			a.mu.Unlock()
			return nil, false
		}
		if c := cs.useChunk(); c != nil {
			d := cs.deliver(c)
			a.mu.Unlock()
			return d, true
		}
		cs.abm.work.Fire() // we are starved: let the scheduler know
		// Register interest before dropping the mutex: a load completing
		// between the unlock and the block would otherwise be lost. The
		// cancel hook fires the same event (after the Waiter registration,
		// so a cancel landing in the gap still hits the captured
		// generation), and the loop-top check turns the wake into
		// ok=false.
		w := cs.avail.Waiter()
		stop := cs.qctx.OnCancel(cs.avail.Fire)
		a.mu.Unlock()
		cs.qctx.Wait(w)
		stop()
		a.mu.Lock()
	}
}

// useChunk implements UseRelevance: among the chunks of interest cached
// for the scan, the one with the lowest relevance — the one fewest other
// scans want, so it becomes evictable soonest. Ties go to the first in
// chunk order. Caller holds a.mu.
func (cs *CScan) useChunk() *chunk {
	var pick *chunk
	for i, needed := range cs.need {
		c := cs.tm.chunks[i]
		if needed && (pick == nil || c.relevance() < pick.relevance()) && cs.abm.chunkCachedFor(cs, c) {
			pick = c
		}
	}
	return pick
}

// deliver pins the scan's pages of the chunk and updates interest.
func (cs *CScan) deliver(c *chunk) *Delivery {
	d := &Delivery{cs: cs, Chunk: c.idx, Lo: c.lo(), Hi: c.hi()}
	for _, col := range cs.sorted {
		for _, pg := range cs.snap.PagesInRange(col, d.Lo, d.Hi) {
			rp := cs.abm.resident[pg.ID]
			if rp == nil {
				panic("abm: delivering chunk with absent page")
			}
			rp.pins++
			d.pages = append(d.pages, rp)
		}
	}
	cs.need[c.idx] = false
	cs.remaining--
	c.interest--
	cs.abm.stats.Deliveries++
	cs.abm.pinnedDeliveries++
	return d
}

// Release unpins the delivery's pages and wakes the scheduler (consumed
// chunks may now be evictable).
func (d *Delivery) Release() {
	a := d.cs.abm
	a.mu.Lock()
	for _, rp := range d.pages {
		if rp.pins <= 0 {
			a.mu.Unlock()
			panic("abm: release without pin")
		}
		rp.pins--
	}
	d.pages = nil
	a.pinnedDeliveries--
	a.mu.Unlock()
	a.work.Fire()
}

// UnregisterCScan removes the scan; the paper's UnregisterCScan. Shared
// marking is recomputed and table metadata of abandoned versions is
// destroyed.
func (cs *CScan) Unregister() {
	cs.abm.mu.Lock()
	defer cs.abm.mu.Unlock()
	tm := cs.tm
	for i, needed := range cs.need {
		if needed {
			tm.chunks[i].interest--
			cs.need[i] = false
		}
	}
	cs.remaining = 0
	for i, s := range tm.scans {
		if s == cs {
			tm.scans = append(tm.scans[:i], tm.scans[i+1:]...)
			break
		}
	}
	tm.remarkShared()
	cs.abm.dropStaleVersions(tm.key.table, tm.key.table.Master().Version())
	cs.abm.work.Fire()
}

// chunkCachedFor reports whether every page of the scan's columns in the
// chunk's range is resident.
func (a *ABM) chunkCachedFor(cs *CScan, c *chunk) bool {
	lo, hi := c.lo(), c.hi()
	// Clip to the scan's snapshot (it may be shorter than maxTuples).
	if hi > cs.snap.NumTuples() {
		hi = cs.snap.NumTuples()
	}
	if lo >= hi {
		return false
	}
	for _, col := range cs.sorted {
		for _, pg := range cs.snap.PagesInRange(col, lo, hi) {
			if _, ok := a.resident[pg.ID]; !ok {
				return false
			}
		}
	}
	return true
}

// run is the ABM scheduler loop (the separate thread of §2). It holds
// the instance mutex while deciding, and releases it while blocked on
// work (see waitWork) or transferring from disk (see loadChunk).
func (a *ABM) run() {
	a.mu.Lock()
	for {
		if a.stopped {
			a.mu.Unlock()
			a.pace.Flush()
			return
		}
		c := a.chooseLoad()
		if c == nil {
			a.waitWork()
			continue
		}
		if !a.loadChunk(c) {
			a.stats.BlockedLoads++
			a.waitWork()
			continue
		}
		// Hand the freshly loaded chunk to its consumers before the next
		// load decision can evict it: the scans woken by the load run at
		// this instant and pin their deliveries, which the eviction guard
		// (and its force-evict liveness fallback) respects. Without this
		// yield an overloaded ABM can evict every chunk it loads before
		// any consumer sees it, starving all scans while I/O churns.
		a.mu.Unlock()
		a.r.Sleep(0)
		a.mu.Lock()
	}
}

// waitWork blocks the scheduler until the next work signal, through its
// pacing handle's Wait: the time idle is not work that pays for the next
// load. Interest is registered before the mutex is dropped so a Fire in
// the gap is never lost. Caller holds a.mu; it is held again on return.
func (a *ABM) waitWork() {
	w := a.work.Waiter()
	a.mu.Unlock()
	a.pace.Wait(w)
	a.mu.Lock()
}

// chooseLoad implements QueryRelevance and LoadRelevance in one pass
// over each scan's chunks of interest. A needed chunk cached for the scan
// means it is not starved; one neither cached nor loading is loadable,
// and the scan's candidate is its loadable chunk of highest relevance
// (the first in chunk order on ties). Among scans with a candidate the
// starved are preferred, then those with fewest chunks remaining (the
// first in registration order on ties); the winner's candidate is
// returned, nil if no scan has one. Scans whose owning query is
// cancelled are never chosen: between the cancel and the consumer's
// Unregister the ABM must not burn I/O loading chunks for a dead query.
func (a *ABM) chooseLoad() *chunk {
	var best *chunk
	bestStarved, bestRemaining := false, 0
	for _, tm := range a.tabOrder {
		for _, cs := range tm.scans {
			if cs.qctx.Cancelled() {
				continue
			}
			var pick *chunk
			starved := true
			for i, needed := range cs.need {
				if !needed {
					continue
				}
				c := tm.chunks[i]
				if a.chunkCachedFor(cs, c) {
					starved = false
				} else if !c.loading && (pick == nil || c.relevance() > pick.relevance()) {
					pick = c
				}
			}
			if pick != nil && (best == nil ||
				(starved && !bestStarved) ||
				(starved == bestStarved && cs.remaining < bestRemaining)) {
				best, bestStarved, bestRemaining = pick, starved, cs.remaining
			}
		}
	}
	return best
}

// relevance is the one score all four relevance functions read: how many
// scans still want the chunk, shared chunks boosted. Chunks nobody wants
// score lowest. LoadRelevance loads its maximum; UseRelevance delivers and
// KeepRelevance evicts its minimum.
func (c *chunk) relevance() float64 {
	rel := float64(c.interest)
	if c.shared {
		rel += sharedBonus
	}
	return rel
}

// loadChunk loads every missing page of the chunk for the union of the
// interested scans' columns, evicting lower-relevance chunks to make
// room. It returns false when eviction cannot free enough space.
func (a *ABM) loadChunk(c *chunk) bool {
	pages := a.missingPages(c)
	if len(pages) == 0 {
		a.wakeInterested(c.tm, c.idx, c.idx)
		return true
	}
	var bytes int64
	for _, pg := range pages {
		bytes += pg.Bytes
	}
	if !a.makeRoom(bytes, c.relevance(), c, false) {
		// Liveness safeguard: when no delivery is outstanding, every scan
		// is blocked waiting for a load, so the keep-relevance guard must
		// yield — evict the lowest scorer regardless and proceed.
		if a.pinnedDeliveries > 0 || !a.makeRoom(bytes, c.relevance(), c, true) {
			return false
		}
	}
	c.loading = true
	// Read the pages as one device batch: the array cuts it into spans
	// (see iosim.DeviceArray.AppendSpan), and spans on different devices
	// transfer concurrently. The mutex is released for the transfer:
	// consumers keep draining cached chunks (and the eviction guard skips
	// the loading chunk) meanwhile.
	a.mu.Unlock()
	var spans []iosim.Span
	for _, pg := range pages {
		spans = a.disk.AppendSpan(spans, pg.Block, pg.Bytes)
	}
	a.disk.ReadSpansOwner(a.pace, spans)
	a.mu.Lock()
	// The loaded pages may complete residency for neighbouring chunks too
	// (narrow-column pages span chunks), so the wake set covers every
	// chunk the pages overlap.
	loChunk, hiChunk := c.idx, c.idx
	for _, pg := range pages {
		rp := &residentPage{page: pg}
		a.resident[pg.ID] = rp
		c.owned = append(c.owned, rp)
		a.used += pg.Bytes
		a.stats.BytesLoaded += pg.Bytes
		if a.OnLoad != nil {
			a.OnLoad(pg)
		}
		if first := int(pg.FirstSID / a.cfg.ChunkTuples); first < loChunk {
			loChunk = first
		}
		if last := int((pg.LastSID() - 1) / a.cfg.ChunkTuples); last > hiChunk {
			hiChunk = last
		}
	}
	c.loading = false
	a.stats.ChunksLoaded++
	a.wakeInterested(c.tm, loChunk, hiChunk)
	return true
}

// missingPages returns the absent pages of the chunk for the union of the
// interested scans' columns and snapshots (beyond the shared prefix,
// different snapshots map the same chunk to different pages), deduplicated
// by page and sorted by block for sequential reads.
func (a *ABM) missingPages(c *chunk) []*storage.Page {
	seen := make(map[storage.PageID]bool)
	var out []*storage.Page
	lo, hi := c.lo(), c.hi()
	for _, cs := range c.tm.scans {
		if !cs.need[c.idx] {
			continue
		}
		h := hi
		if h > cs.snap.NumTuples() {
			h = cs.snap.NumTuples()
		}
		for _, col := range cs.sorted {
			for _, pg := range cs.snap.PagesInRange(col, lo, h) {
				if seen[pg.ID] {
					continue
				}
				seen[pg.ID] = true
				if _, ok := a.resident[pg.ID]; !ok {
					out = append(out, pg)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Block < out[j].Block })
	return out
}

// wakeInterested wakes the scans interested in any chunk of tm within
// [loChunk, hiChunk] — every chunk whose residency the completed load
// may have changed. Pages of narrow columns span chunks, so one load can
// make a *neighbouring* chunk fully resident for a scan that was never
// interested in the loaded chunk itself; waking the precise overlap set
// keeps those scans live without the thundering herd of waking everyone.
func (a *ABM) wakeInterested(tm *tableMeta, loChunk, hiChunk int) {
	if hiChunk >= len(tm.chunks) {
		hiChunk = len(tm.chunks) - 1
	}
	for _, cs := range tm.scans {
		for i := loChunk; i <= hiChunk; i++ {
			if cs.need[i] {
				cs.avail.Fire()
				break
			}
		}
	}
}

// makeRoom evicts chunks with relevance strictly below loadRel (the
// paper's rule: evict the lowest scorer if it scores lower than the
// pending load) until bytes fit. With force set the relevance guard is
// waived (liveness safeguard), though pinned chunks are never evicted.
func (a *ABM) makeRoom(bytes int64, loadRel float64, loading *chunk, force bool) bool {
	for a.used+bytes > a.cfg.Capacity {
		var victim *chunk
		victimRel := 0.0
		for _, tm := range a.tabOrder {
			for _, c := range tm.chunks {
				if c == loading || len(c.owned) == 0 || c.loading || a.chunkPinned(c) {
					continue
				}
				rel := c.relevance()
				if victim == nil || rel < victimRel {
					victim, victimRel = c, rel
				}
			}
		}
		if victim == nil || (!force && victimRel >= loadRel) {
			return false
		}
		a.evictChunk(victim)
	}
	return true
}

func (a *ABM) chunkPinned(c *chunk) bool {
	for _, rp := range c.owned {
		if rp.pins > 0 {
			return true
		}
	}
	return false
}

// evictChunk drops the pages the chunk's loads brought in. Pages of
// narrow columns span many chunks (§2's columnar complication); a page
// still covered by another chunk with live interest is transferred to
// that chunk's ownership instead of dropped, so evicting one chunk never
// forces re-reads for neighbours that are still being consumed.
func (a *ABM) evictChunk(c *chunk) {
	for _, rp := range c.owned {
		if rp.pins > 0 {
			panic("abm: evicting pinned page")
		}
		if heir := a.interestedHeir(rp.page, c); heir != nil {
			heir.owned = append(heir.owned, rp)
			continue
		}
		delete(a.resident, rp.page.ID)
		a.used -= rp.page.Bytes
		a.stats.BytesEvicted += rp.page.Bytes
	}
	c.owned = nil
}

// interestedHeir finds another chunk overlapping the page's tuple range
// with strictly more interest than the evicted chunk. The strict
// inequality guarantees pages only move up the retention order, so
// repeated evictions terminate (no transfer cycles).
func (a *ABM) interestedHeir(pg *storage.Page, c *chunk) *chunk {
	tm := c.tm
	first := int(pg.FirstSID / a.cfg.ChunkTuples)
	last := int((pg.LastSID() - 1) / a.cfg.ChunkTuples)
	if last >= len(tm.chunks) {
		last = len(tm.chunks) - 1
	}
	for i := first; i <= last; i++ {
		if i == c.idx {
			continue
		}
		if tm.chunks[i].interest > c.interest {
			return tm.chunks[i]
		}
	}
	return nil
}

// SharedChunkCount reports how many chunks of the snapshot's table
// version are currently marked shared (for tests).
func (a *ABM) SharedChunkCount(snap *storage.Snapshot) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	tm, ok := a.tables[tableKey{table: snap.Table(), version: snap.Version()}]
	if !ok {
		return 0
	}
	n := 0
	for _, c := range tm.chunks {
		if c.shared {
			n++
		}
	}
	return n
}
