package pbm

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/buffer"
	"repro/internal/sim"
	"repro/internal/storage"
)

// refPBM is PBM as it was before a page's claims became a slice and its
// use history a fixed array: claims in a map keyed by scan id, each looked
// up in p.scans on every estimate, a growing use-history slice and a fresh
// candidate slice per batch. It is the oracle TestDifferentialClaims holds
// PBM to, victim for victim. The mutex and the admission-cost hooks,
// which the change did not touch, are left out.

type refScan struct {
	id             ScanID
	tuplesConsumed int64
	speed          float64 // tuples per second; 0 until first report
	lastReport     sim.Time
	lastTuples     int64
	registered     []storage.PageID // pages to clean up at unregister
}

// refMeta is the per-page bookkeeping. It exists for every page of any
// active scan's range plus every cached page, whether or not resident.
type refMeta struct {
	id     storage.PageID
	tuples int
	bytes  int64
	// consuming maps scan id -> tuples_behind: the number of tuples the
	// scan must consume before reaching this page (per the paper's
	// RegisterScan pseudocode).
	consuming map[ScanID]int64
	frame     *buffer.Frame // nil when not resident

	bucket     *refBucket
	prev, next *refMeta

	// lastUses holds up to four most recent consumption timestamps, used
	// by the PBM/LRU extension to estimate reuse distance.
	lastUses []sim.Time
}

// refBucket is a doubly-linked list of refMeta with a sentinel. For the
// not-requested bucket the list is maintained in LRU order (front =
// least recently used).
type refBucket struct {
	head refMeta
	size int
}

func newRefBucket() *refBucket {
	b := &refBucket{}
	b.head.prev = &b.head
	b.head.next = &b.head
	return b
}

func (b *refBucket) pushBack(m *refMeta) {
	m.prev = b.head.prev
	m.next = &b.head
	m.prev.next = m
	m.next.prev = m
	m.bucket = b
	b.size++
}

func (b *refBucket) remove(m *refMeta) {
	m.prev.next = m.next
	m.next.prev = m.prev
	m.prev, m.next = nil, nil
	m.bucket = nil
	b.size--
}

func (b *refBucket) front() *refMeta {
	if b.size == 0 {
		return nil
	}
	return b.head.next
}

type refPBM struct {
	cfg   Config
	clock Clock

	scans  map[ScanID]*refScan
	nextID ScanID
	pages  map[storage.PageID]*refMeta

	// buckets is the requested-page timeline: index 0 is "due now".
	buckets      []*refBucket
	notRequested *refBucket
	// lruBuckets is the PBM/LRU counter-rotating timeline (LRUMode only).
	lruBuckets []*refBucket

	timePassed sim.Time // the clock time the timeline is shifted to, a multiple of TimeSlice
	spanSlices sim.Time // the timeline's span m*(2^n-1), in time slices
	shifts     int64    // shiftOnce calls so far (tests bound catch-up work by it)

	victims []*refMeta // pre-selected eviction batch
}

func newRefPBM(clock Clock, cfg Config) *refPBM {
	if cfg.TimeSlice <= 0 || cfg.NumGroups <= 0 || cfg.BucketsPerGroup <= 0 {
		panic("pbm: invalid config")
	}
	if cfg.DefaultSpeed <= 0 {
		cfg.DefaultSpeed = DefaultConfig().DefaultSpeed
	}
	if cfg.EvictBatch <= 0 {
		cfg.EvictBatch = 1
	}
	p := &refPBM{
		cfg:          cfg,
		clock:        clock,
		scans:        make(map[ScanID]*refScan),
		pages:        make(map[storage.PageID]*refMeta),
		notRequested: newRefBucket(),
		spanSlices:   sim.Time(cfg.BucketsPerGroup) * (1<<uint(cfg.NumGroups) - 1),
	}
	n := cfg.NumGroups * cfg.BucketsPerGroup
	p.buckets = make([]*refBucket, n)
	for i := range p.buckets {
		p.buckets[i] = newRefBucket()
	}
	if cfg.LRUMode {
		p.lruBuckets = make([]*refBucket, n)
		for i := range p.lruBuckets {
			p.lruBuckets[i] = newRefBucket()
		}
	}
	return p
}

// bucketLen returns the time-range length of bucket index i.
func (p *refPBM) bucketLen(i int) sim.Duration {
	g := i / p.cfg.BucketsPerGroup
	return p.cfg.TimeSlice << uint(g)
}

// timeToBucket maps a time-until-consumption to a bucket index in O(1)
// (the paper's TimeToBucketNumber). Times beyond the timeline fall into
// the last bucket.
func (p *refPBM) timeToBucket(d sim.Duration) int {
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
func (p *refPBM) RegisterScan(pagesPerColumn [][]*storage.Page) ScanID {
	p.refresh()
	p.nextID++
	id := p.nextID
	st := &refScan{id: id, lastReport: p.clock.Now()}
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

// ReportScanPosition updates a scan's progress. tuplesConsumed is the
// total tuples the scan has consumed per column (scans move through all
// their columns at the same tuple position). The scan's speed estimate is
// an exponentially-weighted average of windowed progress observations.
func (p *refPBM) ReportScanPosition(id ScanID, tuplesConsumed int64) {
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
func (p *refPBM) UnregisterScan(id ScanID) {
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

func (p *refPBM) meta(pg *storage.Page) *refMeta {
	m, ok := p.pages[pg.ID]
	if !ok {
		m = &refMeta{id: pg.ID, tuples: pg.Tuples, bytes: pg.Bytes, consuming: make(map[ScanID]int64)}
		p.pages[pg.ID] = m
	}
	return m
}

// SharingVolumes computes the sharing-potential histogram of Figures 17
// and 18: the byte volume of pages currently wanted by exactly k active
// scans, for k in 1..3, with index 4 aggregating >=4 scans. Index 0 holds
// the volume wanted by no scan. All pages known to PBM (resident or
// registered by a scan) are counted.
func (p *refPBM) SharingVolumes() [5]int64 {
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
func (p *refPBM) nextConsumption(m *refMeta) (sim.Duration, bool) {
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
func (p *refPBM) pagePush(m *refMeta) {
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
func (p *refPBM) pushUnrequested(m *refMeta) {
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
func (p *refPBM) historicalReuse(m *refMeta) (sim.Duration, bool) {
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
func (p *refPBM) refresh() {
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

func (p *refPBM) shiftOnce() {
	p.shifts++
	n := len(p.buckets)
	var spill *refBucket // the bucket shifted off position 0 ("buckets[-1]")
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
			p.buckets[i] = newRefBucket()
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
		p.lruBuckets[0] = newRefBucket()
	}
}

// Admitted implements buffer.Policy.
func (p *refPBM) Admitted(f *buffer.Frame) {
	p.refresh()
	m := p.meta(f.Page)
	m.frame = f
	f.PolicyState = m
	p.recordUse(m)
	p.pagePush(m)
}

// Accessed implements buffer.Policy.
func (p *refPBM) Accessed(f *buffer.Frame) {
	p.refresh()
	m := f.PolicyState.(*refMeta)
	p.recordUse(m)
	p.pagePush(m)
}

func (p *refPBM) recordUse(m *refMeta) {
	m.lastUses = append(m.lastUses, p.clock.Now())
	if len(m.lastUses) > 4 {
		m.lastUses = m.lastUses[len(m.lastUses)-4:]
	}
}

// Removed implements buffer.Policy.
func (p *refPBM) Removed(f *buffer.Frame) {
	m := f.PolicyState.(*refMeta)
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
func (p *refPBM) Victim() *buffer.Frame {
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

func (p *refPBM) selectVictims() {
	// takeLRU drains a bucket in list (LRU) order — used for the
	// not-requested and history buckets.
	takeLRU := func(b *refBucket) bool {
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
	takeFurthest := func(b *refBucket) bool {
		type cand struct {
			m *refMeta
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

// BucketSizes returns the number of pages in each requested bucket plus
// the not-requested bucket at the end (for tests and introspection).
func (p *refPBM) BucketSizes() []int {
	out := make([]int, len(p.buckets)+1)
	for i, b := range p.buckets {
		out[i] = b.size
	}
	out[len(p.buckets)] = p.notRequested.size
	return out
}

// TestDifferentialClaims runs 200 seeded scripts of register, report,
// admit, access, victim, remove, unregister and clock jumps past a full
// timeline span against PBM and refPBM, with LRUMode off and on, and
// requires the same victims, bucket sizes (history buckets included),
// sharing volumes and page table size after every step. The scripts
// list pages twice in a column, unregister scans whose pages another
// scan still claims, and re-register pages evicted with no claim left;
// the test fails if they stop covering any of the three.
func TestDifferentialClaims(t *testing.T) {
	var cover claimCover
	for _, lru := range []bool{false, true} {
		for seed := int64(1); seed <= 200; seed++ {
			runClaimScript(t, seed, lru, &cover)
			if t.Failed() {
				return
			}
		}
	}
	if cover.twice == 0 || cover.sharedUnregister == 0 || cover.reRegistered == 0 {
		t.Fatalf("scripts miss a case: %+v", cover)
	}
}

type claimCover struct {
	twice            int // columns that list one page twice
	sharedUnregister int // unregisters while another scan claims a page of theirs
	reRegistered     int // registrations of a page evicted with no claim
}

func runClaimScript(t *testing.T, seed int64, lru bool, cover *claimCover) {
	const (
		cols     = 4
		colPages = 8
		capacity = 16
	)
	rng := rand.New(rand.NewSource(seed))
	clock := &fakeClock{}
	cfg := testCfg()
	cfg.LRUMode = lru
	cfg.EvictBatch = 1 + rng.Intn(4)
	p, r := New(clock, cfg), newRefPBM(clock, cfg)
	span := sim.Duration(r.spanSlices) * cfg.TimeSlice

	pages := make([]*storage.Page, cols*colPages)
	for i := range pages {
		pages[i] = &storage.Page{ID: storage.PageID(i + 1), Tuples: 100 + rng.Intn(2000), Bytes: int64(1000 + i)}
	}
	type frames struct{ p, r *buffer.Frame }
	resident := map[storage.PageID]frames{}
	unclaimed := map[storage.PageID]bool{} // evicted with no claim left
	type scan struct {
		p, r     ScanID
		consumed int64
	}
	var scans []scan

	idOf := func(f *buffer.Frame) storage.PageID {
		if f == nil {
			return 0
		}
		return f.Page.ID
	}
	evict := func(pg *storage.Page) {
		fr := resident[pg.ID]
		p.Removed(fr.p)
		r.Removed(fr.r)
		delete(resident, pg.ID)
		if _, ok := r.pages[pg.ID]; !ok {
			unclaimed[pg.ID] = true
		}
	}
	victim := func(step int) *storage.Page {
		vp, vr := p.Victim(), r.Victim()
		if idOf(vp) != idOf(vr) {
			t.Fatalf("seed %d lru %v step %d: victim page %d, reference %d", seed, lru, step, idOf(vp), idOf(vr))
		}
		if vp == nil {
			return nil
		}
		return vp.Page
	}
	pick := func() *storage.Page { return pages[rng.Intn(len(pages))] }

	for step := 0; step < 300; step++ {
		switch rng.Intn(12) {
		case 0, 1: // register 1-3 columns, each a page range, one page maybe listed twice
			var perCol [][]*storage.Page
			for c := 0; c < cols; c++ {
				if rng.Intn(2) == 0 && !(c == cols-1 && len(perCol) == 0) {
					continue
				}
				lo := rng.Intn(colPages)
				hi := lo + 1 + rng.Intn(colPages-lo)
				list := append([]*storage.Page(nil), pages[c*colPages+lo:c*colPages+hi]...)
				if rng.Intn(3) == 0 {
					at := rng.Intn(len(list))
					list = slices.Insert(list, at+rng.Intn(len(list)-at)+1, list[at])
					cover.twice++
				}
				for _, pg := range list {
					if unclaimed[pg.ID] {
						cover.reRegistered++
						delete(unclaimed, pg.ID)
					}
				}
				perCol = append(perCol, list)
			}
			scans = append(scans, scan{p: p.RegisterScan(perCol), r: r.RegisterScan(perCol)})
		case 2: // report progress
			if len(scans) == 0 {
				continue
			}
			s := &scans[rng.Intn(len(scans))]
			s.consumed += int64(rng.Intn(3000))
			p.ReportScanPosition(s.p, s.consumed)
			r.ReportScanPosition(s.r, s.consumed)
		case 3, 4: // admit, evicting first when full
			pg := pick()
			if _, ok := resident[pg.ID]; ok {
				continue
			}
			if len(resident) >= capacity {
				v := victim(step)
				if v == nil {
					continue
				}
				evict(v)
			}
			fr := frames{&buffer.Frame{Page: pg}, &buffer.Frame{Page: pg}}
			resident[pg.ID] = fr
			p.Admitted(fr.p)
			r.Admitted(fr.r)
		case 5, 10, 11: // access
			pg := pick()
			if fr, ok := resident[pg.ID]; ok {
				p.Accessed(fr.p)
				r.Accessed(fr.r)
			}
		case 6: // victim, evicted or left resident
			if v := victim(step); v != nil && rng.Intn(2) == 0 {
				evict(v)
			}
		case 7: // remove (an invalidated page)
			if pg := pick(); resident[pg.ID] != (frames{}) {
				evict(pg)
			}
		case 8: // unregister
			if len(scans) == 0 {
				continue
			}
			i := rng.Intn(len(scans))
			s := scans[i]
			for _, pid := range r.scans[s.r].registered {
				if m, ok := r.pages[pid]; ok && len(m.consuming) > 1 {
					cover.sharedUnregister++
					break
				}
			}
			p.UnregisterScan(s.p)
			r.UnregisterScan(s.r)
			scans = slices.Delete(scans, i, i+1)
		case 9: // time passes, now and then past the whole timeline
			d := sim.Duration(rng.Intn(int(4 * cfg.TimeSlice)))
			if rng.Intn(8) == 0 {
				d += span
			}
			clock.t += sim.Time(d)
		}
		if got, want := p.BucketSizes(), r.BucketSizes(); !slices.Equal(got, want) {
			t.Fatalf("seed %d lru %v step %d: bucket sizes %v, reference %v", seed, lru, step, got, want)
		}
		for i, b := range r.lruBuckets {
			if p.lruBuckets[i].size != b.size {
				t.Fatalf("seed %d step %d: history bucket %d holds %d pages, reference %d", seed, step, i, p.lruBuckets[i].size, b.size)
			}
		}
		if got, want := p.SharingVolumes(), r.SharingVolumes(); got != want {
			t.Fatalf("seed %d lru %v step %d: sharing volumes %v, reference %v", seed, lru, step, got, want)
		}
		if len(p.pages) != len(r.pages) {
			t.Fatalf("seed %d lru %v step %d: %d pages known, reference %d", seed, lru, step, len(p.pages), len(r.pages))
		}
	}
}
