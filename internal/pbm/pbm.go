// Package pbm implements Predictive Buffer Management (§3 of the paper),
// the paper's primary contribution.
//
// PBM is a replacement policy for the traditional buffer manager. Scans
// register their future page accesses (RegisterScan) and periodically
// report their position and hence speed (ReportScanPosition). From each
// scan's distance-in-tuples to a page and its observed speed, PBM
// estimates the page's time of next consumption (PageNextConsumption) —
// an approximation of the perfect-oracle OPT metric — and evicts the page
// whose next consumption lies furthest in the future.
//
// Because a fully-ordered priority queue was too expensive in the
// highly-concurrent Vectorwise setting, PBM instead partitions pages into
// buckets along an exponential timeline: n groups of m buckets, every
// bucket in group g spanning time_slice*2^g. Push and evict are O(1); the
// timeline is shifted left every time_slice (RefreshRequestedBuckets).
// Pages wanted by no active scan live in a final "not requested" bucket
// kept in LRU order. The structure is made cheap, not partitioned: one
// PBM holds one timeline over every page of the pool it serves.
package pbm

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/sim"
	"repro/internal/storage"
)

// ScanID identifies a registered scan.
type ScanID int64

// Clock abstracts the virtual clock so PBM is testable without an engine.
type Clock interface {
	Now() sim.Time
}

// Config parameterizes the bucket timeline.
type Config struct {
	// TimeSlice is the bucket length of the first group and the refresh
	// period of the timeline.
	TimeSlice sim.Duration
	// NumGroups is the number of bucket groups (n in the paper).
	NumGroups int
	// BucketsPerGroup is the number of buckets per group (m in the paper).
	BucketsPerGroup int
	// DefaultSpeed, in tuples/second, is assumed for a scan whose speed
	// has not been observed yet.
	DefaultSpeed float64
	// EvictBatch is the number of victims pre-selected per eviction round
	// to amortize cost (the paper evicts in groups of 16 or more).
	EvictBatch int
	// LRUMode enables the sketched PBM/LRU extension: pages without an
	// interested scan are placed on a second, counter-rotating set of
	// buckets positioned by their historical reuse distance, instead of a
	// single LRU tail bucket.
	LRUMode bool
}

// DefaultConfig mirrors the paper's example parameters at a scale suited
// to the simulation (100 ms time slice; plenty of timeline range).
func DefaultConfig() Config {
	return Config{
		TimeSlice:       100 * time.Millisecond,
		NumGroups:       10,
		BucketsPerGroup: 4,
		DefaultSpeed:    1e6,
		EvictBatch:      16,
	}
}

type scanState struct {
	id             ScanID
	tuplesConsumed int64
	speed          float64 // tuples per second; 0 until first report
	lastReport     sim.Time
	lastTuples     int64
	registered     []storage.PageID // pages to clean up at unregister
}

// pageMeta is PBM's per-page bookkeeping. It exists for every page of any
// active scan's range plus every cached page, whether or not resident.
type pageMeta struct {
	id     storage.PageID
	tuples int
	bytes  int64
	// consuming maps scan id -> tuples_behind: the number of tuples the
	// scan must consume before reaching this page (per the paper's
	// RegisterScan pseudocode).
	consuming map[ScanID]int64
	frame     *buffer.Frame // nil when not resident

	bucket     *bucket
	prev, next *pageMeta

	// lastUses holds up to four most recent consumption timestamps, used
	// by the PBM/LRU extension to estimate reuse distance.
	lastUses []sim.Time
}

// bucket is a doubly-linked list of pageMeta with a sentinel. For the
// not-requested bucket the list is maintained in LRU order (front =
// least recently used).
type bucket struct {
	head pageMeta
	size int
}

func newBucket() *bucket {
	b := &bucket{}
	b.head.prev = &b.head
	b.head.next = &b.head
	return b
}

func (b *bucket) pushBack(m *pageMeta) {
	m.prev = b.head.prev
	m.next = &b.head
	m.prev.next = m
	m.next.prev = m
	m.bucket = b
	b.size++
}

func (b *bucket) remove(m *pageMeta) {
	m.prev.next = m.next
	m.next.prev = m.prev
	m.prev, m.next = nil, nil
	m.bucket = nil
	b.size--
}

func (b *bucket) front() *pageMeta {
	if b.size == 0 {
		return nil
	}
	return b.head.next
}

// PBM implements buffer.Policy plus the scan-registration interface of
// Figure 3: RegisterScan, ReportScanPosition, UnregisterScan. One
// instance holds one timeline over every cached page, so Victim is the
// page whose next consumption is furthest in the pool.
//
// A PBM instance is entered from two directions: by its pool through the
// buffer.Policy hooks (under the pool's mutex) and directly by scan
// operators (under no lock at all). On the real-threaded runtime those
// calls race, so every public entry point takes the instance mutex; the
// lock order is always pool → pbm and PBM never calls back into the
// pool, so the pair cannot deadlock. In sim mode the mutex is uncontended
// and costs nothing.
type PBM struct {
	mu    sync.Mutex
	cfg   Config
	clock Clock

	scans  map[ScanID]*scanState
	nextID ScanID
	pages  map[storage.PageID]*pageMeta

	// buckets is the requested-page timeline: index 0 is "due now".
	buckets      []*bucket
	notRequested *bucket
	// lruBuckets is the PBM/LRU counter-rotating timeline (LRUMode only).
	lruBuckets []*bucket

	timePassed sim.Time // the clock time the timeline is shifted to, a multiple of TimeSlice
	spanSlices sim.Time // the timeline's span m*(2^n-1), in time slices
	shifts     int64    // shiftOnce calls so far (tests bound catch-up work by it)

	victims []*pageMeta // pre-selected eviction batch
}

// New creates a PBM policy.
func New(clock Clock, cfg Config) *PBM {
	if cfg.TimeSlice <= 0 || cfg.NumGroups <= 0 || cfg.BucketsPerGroup <= 0 {
		panic("pbm: invalid config")
	}
	if cfg.DefaultSpeed <= 0 {
		cfg.DefaultSpeed = DefaultConfig().DefaultSpeed
	}
	if cfg.EvictBatch <= 0 {
		cfg.EvictBatch = 1
	}
	p := &PBM{
		cfg:          cfg,
		clock:        clock,
		scans:        make(map[ScanID]*scanState),
		pages:        make(map[storage.PageID]*pageMeta),
		notRequested: newBucket(),
		spanSlices:   sim.Time(cfg.BucketsPerGroup) * (1<<uint(cfg.NumGroups) - 1),
	}
	n := cfg.NumGroups * cfg.BucketsPerGroup
	p.buckets = make([]*bucket, n)
	for i := range p.buckets {
		p.buckets[i] = newBucket()
	}
	if cfg.LRUMode {
		p.lruBuckets = make([]*bucket, n)
		for i := range p.lruBuckets {
			p.lruBuckets[i] = newBucket()
		}
	}
	return p
}

// Group is the name bench/ still knows the per-shard fan-out by; the next [benchmark] PR drops it.
type Group = PBM

// NewGroup is New with the ignored shard count bench/ still passes; the next [benchmark] PR drops it.
func NewGroup(c Clock, cfg Config, _ int) *Group { return New(c, cfg) }

// bucketLen returns the time-range length of bucket index i.
func (p *PBM) bucketLen(i int) sim.Duration {
	g := i / p.cfg.BucketsPerGroup
	return p.cfg.TimeSlice << uint(g)
}

// timeToBucket maps a time-until-consumption to a bucket index in O(1)
// (the paper's TimeToBucketNumber). Times beyond the timeline fall into
// the last bucket.
func (p *PBM) timeToBucket(d sim.Duration) int {
	if d < 0 {
		d = 0
	}
	m := sim.Duration(p.cfg.BucketsPerGroup)
	L := p.cfg.TimeSlice
	// Group g covers [m*L*(2^g - 1), m*L*(2^(g+1) - 1)), so g is the bit
	// length of d/(m*L)+1, minus one.
	g := bits.Len64(uint64(d/(m*L))+1) - 1
	if g >= p.cfg.NumGroups {
		return len(p.buckets) - 1
	}
	start := m * L * sim.Duration((1<<uint(g))-1)
	idx := g*p.cfg.BucketsPerGroup + int((d-start)/(L<<uint(g)))
	if idx >= len(p.buckets) {
		idx = len(p.buckets) - 1
	}
	return idx
}

// RegisterScan registers a scan's future page accesses. For every column
// the pages of each range are walked in access order, recording
// (scan id, tuples_behind) on each page, per the paper's pseudocode.
// pagesPerColumn lists, per column, the pages in the order the scan will
// consume them.
func (p *PBM) RegisterScan(pagesPerColumn [][]*storage.Page) ScanID {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refresh()
	p.nextID++
	id := p.nextID
	st := &scanState{id: id, lastReport: p.clock.Now()}
	p.scans[id] = st
	for _, pages := range pagesPerColumn {
		var tuplesBehind int64
		for _, pg := range pages {
			m := p.meta(pg)
			if _, ok := m.consuming[id]; !ok {
				st.registered = append(st.registered, pg.ID)
			}
			m.consuming[id] = tuplesBehind
			tuplesBehind += int64(pg.Tuples)
			if m.frame != nil {
				p.pagePush(m)
			}
		}
	}
	return id
}

// speedWindowTuples is the minimum progress between speed re-estimates.
// Estimating per small batch makes the speed oscillate wildly between
// cached batches (fast) and I/O-stalled batches (slow), and the stalled
// samples systematically stretch every consumption estimate right when
// the buffer is under pressure — a mispredict-evict-miss feedback loop.
// A windowed estimate averages over both.
const speedWindowTuples = 4096

// ReportScanPosition updates a scan's progress. tuplesConsumed is the
// total tuples the scan has consumed per column (scans move through all
// their columns at the same tuple position). The scan's speed estimate is
// an exponentially-weighted average of windowed progress observations.
func (p *PBM) ReportScanPosition(id ScanID, tuplesConsumed int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.scans[id]
	if !ok {
		panic(fmt.Sprintf("pbm: unknown scan %d", id))
	}
	now := p.clock.Now()
	dt := now - st.lastReport
	dn := tuplesConsumed - st.lastTuples
	if dt > 0 && (dn >= speedWindowTuples || (st.speed == 0 && dn > 0)) {
		inst := float64(dn) / sim.Time(dt).Seconds()
		if st.speed == 0 {
			st.speed = inst
		} else {
			st.speed = 0.5*st.speed + 0.5*inst
		}
		st.lastReport = now
		st.lastTuples = tuplesConsumed
	}
	st.tuplesConsumed = tuplesConsumed
	p.refresh()
}

// UnregisterScan removes the scan and drops its claim on all pages it
// registered, re-bucketing resident pages.
func (p *PBM) UnregisterScan(id ScanID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.scans[id]
	if !ok {
		return
	}
	delete(p.scans, id)
	for _, pid := range st.registered {
		m, ok := p.pages[pid]
		if !ok {
			continue
		}
		delete(m.consuming, id)
		if m.frame != nil {
			p.pagePush(m)
		} else if len(m.consuming) == 0 {
			delete(p.pages, pid)
		}
	}
	p.refresh()
}

func (p *PBM) meta(pg *storage.Page) *pageMeta {
	m, ok := p.pages[pg.ID]
	if !ok {
		m = &pageMeta{id: pg.ID, tuples: pg.Tuples, bytes: pg.Bytes, consuming: make(map[ScanID]int64)}
		p.pages[pg.ID] = m
	}
	return m
}

// SharingVolumes computes the sharing-potential histogram of Figures 17
// and 18: the byte volume of pages currently wanted by exactly k active
// scans, for k in 1..3, with index 4 aggregating >=4 scans. Index 0 holds
// the volume wanted by no scan. All pages known to PBM (resident or
// registered by a scan) are counted.
func (p *PBM) SharingVolumes() [5]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out [5]int64
	for _, m := range p.pages {
		n := 0
		for id, behind := range m.consuming {
			st, ok := p.scans[id]
			if !ok || st.tuplesConsumed >= behind+int64(m.tuples) {
				continue
			}
			n++
		}
		if n > 4 {
			n = 4
		}
		out[n] += m.bytes
	}
	return out
}

// nextConsumption estimates the time until the page is next consumed, the
// paper's PageNextConsumption: the minimum over consuming scans of
// distance-in-tuples divided by scan speed. It returns ok=false when no
// registered scan still needs the page. Entries for scans that have
// already passed the page are dropped.
func (p *PBM) nextConsumption(m *pageMeta) (sim.Duration, bool) {
	best := math.Inf(1)
	found := false
	for id, behind := range m.consuming {
		st, ok := p.scans[id]
		if !ok {
			delete(m.consuming, id)
			continue
		}
		if st.tuplesConsumed >= behind+int64(m.tuples) {
			// The scan moved past this page; its claim has expired.
			delete(m.consuming, id)
			continue
		}
		dist := float64(behind - st.tuplesConsumed)
		if dist < 0 {
			dist = 0
		}
		speed := st.speed
		if speed <= 0 {
			speed = p.cfg.DefaultSpeed
		}
		if t := dist / speed; t < best {
			best = t
			found = true
		}
	}
	if !found {
		return 0, false
	}
	return sim.Duration(best * 1e9), true
}

// pagePush re-buckets a resident page according to its estimated next
// consumption (the paper's PagePush).
func (p *PBM) pagePush(m *pageMeta) {
	if m.bucket != nil {
		m.bucket.remove(m)
	}
	d, ok := p.nextConsumption(m)
	if !ok {
		p.pushUnrequested(m)
		return
	}
	p.buckets[p.timeToBucket(d)].pushBack(m)
}

// pushUnrequested places a page wanted by no scan: plain PBM appends to
// the LRU-ordered not-requested bucket; PBM/LRU positions it on the
// counter-rotating timeline by historical reuse distance.
func (p *PBM) pushUnrequested(m *pageMeta) {
	if !p.cfg.LRUMode {
		p.notRequested.pushBack(m)
		return
	}
	if est, ok := p.historicalReuse(m); ok {
		p.lruBuckets[p.timeToBucket(est)].pushBack(m)
		return
	}
	p.notRequested.pushBack(m)
}

// historicalReuse estimates time-to-next-use from the average distance
// between the page's last four uses (the paper's §3 sketch).
func (p *PBM) historicalReuse(m *pageMeta) (sim.Duration, bool) {
	if len(m.lastUses) < 2 {
		return 0, false
	}
	span := m.lastUses[len(m.lastUses)-1] - m.lastUses[0]
	avg := sim.Duration(span) / sim.Duration(len(m.lastUses)-1)
	elapsed := sim.Duration(p.clock.Now() - m.lastUses[len(m.lastUses)-1])
	est := avg - elapsed
	if est < 0 {
		est = 0
	}
	return est, true
}

// refresh advances the bucket timeline to the current time, shifting
// buckets left one position whenever the time passed is a multiple of
// their length (the paper's RefreshRequestedBuckets), and aging the
// PBM/LRU buckets right.
//
// The catch-up after an idle period is bounded by the timeline's span:
// one span of shifts spills every requested page through bucket 0, where
// it is re-pushed from an estimate that does not depend on the clock, and
// drains every history bucket, so slices older than that are skipped, not
// replayed — the first entry point after a quiet night costs what the
// one after eight seconds does.
func (p *PBM) refresh() {
	slice := sim.Time(p.cfg.TimeSlice)
	due := (p.clock.Now() - p.timePassed) / slice
	if skip := due - p.spanSlices; skip > 0 {
		p.timePassed += skip * slice
		due = p.spanSlices
	}
	for ; due > 0; due-- {
		p.timePassed += slice
		p.shiftOnce()
	}
}

func (p *PBM) shiftOnce() {
	p.shifts++
	n := len(p.buckets)
	var spill *bucket // the bucket shifted off position 0 ("buckets[-1]")
	for i := 0; i < n; i++ {
		if p.timePassed%sim.Time(p.bucketLen(i)) != 0 {
			continue
		}
		if i == 0 {
			spill = p.buckets[0]
			p.buckets[0] = nil
		} else {
			if p.buckets[i-1] != nil {
				// Merge: the left neighbour did not move this tick (can
				// happen at group boundaries); fold our pages into it.
				for m := p.buckets[i].front(); m != nil; m = p.buckets[i].front() {
					p.buckets[i].remove(m)
					p.buckets[i-1].pushBack(m)
				}
			} else {
				p.buckets[i-1] = p.buckets[i]
			}
			p.buckets[i] = nil
		}
	}
	for i := 0; i < n; i++ {
		if p.buckets[i] == nil {
			p.buckets[i] = newBucket()
		}
	}
	if spill != nil {
		// Pages due now: recompute their priority (they are either about
		// to be consumed — kept near the front — or their scan stalled).
		for m := spill.front(); m != nil; m = spill.front() {
			spill.remove(m)
			p.pagePush(m)
		}
	}
	if p.cfg.LRUMode {
		// Age the counter-rotating LRU buckets right by one position.
		last := len(p.lruBuckets) - 1
		for m := p.lruBuckets[last].front(); m != nil; m = p.lruBuckets[last].front() {
			p.lruBuckets[last].remove(m)
			p.notRequested.pushBack(m)
		}
		for i := last; i > 0; i-- {
			p.lruBuckets[i] = p.lruBuckets[i-1]
		}
		p.lruBuckets[0] = newBucket()
	}
}

// Admitted implements buffer.Policy.
func (p *PBM) Admitted(f *buffer.Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refresh()
	m := p.meta(f.Page)
	m.frame = f
	f.PolicyState = m
	p.recordUse(m)
	p.pagePush(m)
}

// Accessed implements buffer.Policy.
func (p *PBM) Accessed(f *buffer.Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refresh()
	m := f.PolicyState.(*pageMeta)
	p.recordUse(m)
	p.pagePush(m)
}

func (p *PBM) recordUse(m *pageMeta) {
	m.lastUses = append(m.lastUses, p.clock.Now())
	if len(m.lastUses) > 4 {
		m.lastUses = m.lastUses[len(m.lastUses)-4:]
	}
}

// Removed implements buffer.Policy.
func (p *PBM) Removed(f *buffer.Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := f.PolicyState.(*pageMeta)
	if m.bucket != nil {
		m.bucket.remove(m)
	}
	m.frame = nil
	f.PolicyState = nil
	// Drop victim-batch entries pointing at this page.
	for i, v := range p.victims {
		if v == m {
			p.victims = append(p.victims[:i], p.victims[i+1:]...)
			break
		}
	}
	if len(m.consuming) == 0 {
		delete(p.pages, m.id)
	}
}

// Victim implements buffer.Policy (the paper's EvictPage): first the
// not-requested bucket (LRU order), then requested buckets from the
// furthest future backwards. Victims are pre-selected in batches of
// EvictBatch to amortize selection cost.
func (p *PBM) Victim() *buffer.Frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refresh()
	for refilled := false; ; refilled = true {
		for len(p.victims) > 0 {
			m := p.victims[0]
			p.victims = p.victims[1:]
			if m.frame != nil && !m.frame.Pinned() && !m.frame.Loading() && m.bucket != nil {
				return m.frame
			}
		}
		if refilled {
			return nil
		}
		p.selectVictims()
	}
}

func (p *PBM) selectVictims() {
	// takeLRU drains a bucket in list (LRU) order — used for the
	// not-requested and history buckets.
	takeLRU := func(b *bucket) bool {
		for m := b.front(); m != nil; m = m.next {
			if m == &b.head {
				break
			}
			if m.frame == nil || m.frame.Pinned() || m.frame.Loading() {
				continue
			}
			p.victims = append(p.victims, m)
			if len(p.victims) >= p.cfg.EvictBatch {
				return true
			}
		}
		return false
	}
	// takeFurthest drains a requested bucket by decreasing estimated
	// next consumption: one bucket's pages share a coarse time range (the
	// last bucket aggregates the entire far future), so ordering within
	// it keeps eviction close to OPT at batch-selection cost only.
	takeFurthest := func(b *bucket) bool {
		type cand struct {
			m *pageMeta
			d sim.Duration
		}
		var cands []cand
		for m := b.front(); m != nil; m = m.next {
			if m == &b.head {
				break
			}
			if m.frame == nil || m.frame.Pinned() || m.frame.Loading() {
				continue
			}
			d, ok := p.nextConsumption(m)
			if !ok {
				d = 1 << 62 // nobody wants it anymore: best victim
			}
			cands = append(cands, cand{m, d})
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].d > cands[j].d })
		for _, c := range cands {
			p.victims = append(p.victims, c.m)
			if len(p.victims) >= p.cfg.EvictBatch {
				return true
			}
		}
		return false
	}
	if takeLRU(p.notRequested) {
		return
	}
	if p.cfg.LRUMode {
		// Counter-rotating eviction: at each timeline position from the
		// far future inwards, evict the LRU bucket before the PBM bucket.
		for i := len(p.buckets) - 1; i >= 0; i-- {
			if takeLRU(p.lruBuckets[i]) {
				return
			}
			if takeFurthest(p.buckets[i]) {
				return
			}
		}
		return
	}
	for i := len(p.buckets) - 1; i >= 0; i-- {
		if takeFurthest(p.buckets[i]) {
			return
		}
	}
}

// ScanSpeed reports the current speed estimate for a scan (tuples/second),
// exposed for tests.
func (p *PBM) ScanSpeed(id ScanID) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.scans[id]; ok {
		return st.speed
	}
	return 0
}

// AvgScanSpeed reports the mean observed speed of the currently
// registered scans in tuples/second, falling back to the configured
// DefaultSpeed while no scan has a speed estimate yet. Scans are summed
// in id order so the float result is identical run-to-run.
func (p *PBM) AvgScanSpeed() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]ScanID, 0, len(p.scans))
	for id, st := range p.scans {
		if st.speed > 0 {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return p.cfg.DefaultSpeed
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sum float64
	for _, id := range ids {
		sum += p.scans[id].speed
	}
	return sum / float64(len(ids))
}

// minCostSpeed is the floor applied to the speed estimate when pricing
// scans for admission: a zero/unset DefaultSpeed with no observed scans
// must yield a large-but-finite cost — a +Inf estimate poisons sesf's
// ordering (every query ties at +Inf and the cost signal disappears) and
// NaNs any arithmetic downstream. One tuple/second keeps the estimate
// monotonic in scan length even on the fallback path.
const minCostSpeed = 1

// maxCostSec caps the estimate so the sim.Duration conversion cannot
// overflow int64 nanoseconds into a negative cost (which would sort
// AHEAD of every real query under sesf).
const maxCostSec = 1e9

// EstimateScanTime is the admission cost hook (exec.ScanCostModel): the
// expected execution time of a fresh scan over tuples tuples, priced at
// the average observed scan speed. It turns PBM's speed estimates — built
// to predict page next-consumption times for eviction — into the
// per-query expected-work signal a shortest-expected-scan-first admission
// policy orders by. Callers price predicate scans with the tuple count
// surviving zone-map pruning, so a 1%-selective scan is admitted as
// ~100x cheaper than a full scan of the same range (skip-aware costing).
func (p *PBM) EstimateScanTime(tuples int64) sim.Duration {
	if tuples <= 0 {
		return 0
	}
	speed := p.AvgScanSpeed()
	if speed < minCostSpeed {
		speed = minCostSpeed
	}
	secs := float64(tuples) / speed
	if secs > maxCostSec {
		secs = maxCostSec
	}
	return sim.Duration(secs * 1e9)
}

// BucketSizes returns the number of pages in each requested bucket plus
// the not-requested bucket at the end (for tests and introspection).
func (p *PBM) BucketSizes() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, len(p.buckets)+1)
	for i, b := range p.buckets {
		out[i] = b.size
	}
	out[len(p.buckets)] = p.notRequested.size
	return out
}
