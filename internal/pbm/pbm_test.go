package pbm

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/buffer"
	"repro/internal/iosim"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
)

type fakeClock struct{ t sim.Time }

func (c *fakeClock) Now() sim.Time { return c.t }

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.TimeSlice = 10 * time.Millisecond
	cfg.NumGroups = 4
	cfg.BucketsPerGroup = 2
	cfg.EvictBatch = 2
	return cfg
}

func TestTimeToBucketMonotonic(t *testing.T) {
	p := New(&fakeClock{}, testCfg())
	prev := 0
	for d := sim.Duration(0); d < 5*time.Second; d += time.Millisecond {
		b := p.timeToBucket(d)
		if b < prev {
			t.Fatalf("bucket index decreased at %v: %d < %d", d, b, prev)
		}
		prev = b
	}
	if prev != len(p.buckets)-1 {
		t.Fatalf("far future maps to bucket %d, want last (%d)", prev, len(p.buckets)-1)
	}
}

func TestTimeToBucketGroupBoundaries(t *testing.T) {
	p := New(&fakeClock{}, testCfg()) // m=2, L=10ms
	cases := []struct {
		d    sim.Duration
		want int
	}{
		{0, 0},
		{9 * time.Millisecond, 0},
		{10 * time.Millisecond, 1},
		{19 * time.Millisecond, 1},
		// Group 1 starts at m*L*(2^1-1)=20ms, buckets of 20ms.
		{20 * time.Millisecond, 2},
		{39 * time.Millisecond, 2},
		{40 * time.Millisecond, 3},
		// Group 2 starts at 2*10*(4-1)=60ms, buckets of 40ms.
		{60 * time.Millisecond, 4},
		{99 * time.Millisecond, 4},
		{100 * time.Millisecond, 5},
		// Group 3 starts at 2*10*(8-1)=140ms, buckets of 80ms.
		{140 * time.Millisecond, 6},
		{-5, 0},
	}
	for _, c := range cases {
		if got := p.timeToBucket(c.d); got != c.want {
			t.Errorf("timeToBucket(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// Property: timeToBucket is total, in range, and monotonic for arbitrary
// durations.
func TestPropertyTimeToBucket(t *testing.T) {
	p := New(&fakeClock{}, testCfg())
	f := func(a, b uint32) bool {
		da, db := sim.Duration(a)*time.Microsecond, sim.Duration(b)*time.Microsecond
		ba, bb := p.timeToBucket(da), p.timeToBucket(db)
		if ba < 0 || ba >= len(p.buckets) {
			return false
		}
		if da <= db && ba > bb {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// pbmFixture wires a PBM into a real pool over a one-column table.
func pbmFixture(t testing.TB, capPages, nPages int, cfg Config) (*sim.Engine, *PBM, *buffer.Pool, []*storage.Page) {
	t.Helper()
	eng := sim.NewEngine()
	disk := iosim.New(rt.Sim(eng), iosim.Config{Bandwidth: 1e9, SeekLatency: 10 * time.Microsecond})
	p := New(eng, cfg)
	pool := buffer.NewPool(rt.Sim(eng), disk, p, int64(capPages)*storage.PageSize)

	cat := storage.NewCatalog()
	tb, err := cat.CreateTable("t", storage.Schema{{Name: "a", Type: storage.Int64, Width: 8}})
	if err != nil {
		t.Fatal(err)
	}
	perPage := storage.PageSize / 8
	data := storage.NewColumnData()
	vals := make([]int64, nPages*perPage)
	data.I64[0] = vals
	s, err := tb.Master().Append(data)
	if err != nil {
		t.Fatal(err)
	}
	return eng, p, pool, s.Pages(0)
}

func TestRegisteredPagesGoToRequestedBuckets(t *testing.T) {
	eng, p, pool, pages := pbmFixture(t, 8, 8, testCfg())
	eng.Go("q", func() {
		pool.Unpin(pool.Get(pages[0])) // cached, unregistered
		sizes := p.BucketSizes()
		if sizes[len(sizes)-1] != 1 {
			t.Errorf("page not in not-requested bucket: %v", sizes)
		}
		id := p.RegisterScan([][]*storage.Page{pages[:4]})
		sizes = p.BucketSizes()
		if sizes[len(sizes)-1] != 0 {
			t.Errorf("registered cached page stayed unrequested: %v", sizes)
		}
		p.UnregisterScan(id)
		sizes = p.BucketSizes()
		if sizes[len(sizes)-1] != 1 {
			t.Errorf("unregister did not return page to LRU bucket: %v", sizes)
		}
	})
	eng.Run()
}

// TestEvictionPrefersUnrequested: pages nobody wants are evicted before
// pages a scan still needs.
func TestEvictionPrefersUnrequested(t *testing.T) {
	eng, p, pool, pages := pbmFixture(t, 4, 8, testCfg())
	eng.Go("q", func() {
		pool.Unpin(pool.Get(pages[6])) // not registered: fodder
		pool.Unpin(pool.Get(pages[7])) // not registered: fodder
		p.RegisterScan([][]*storage.Page{pages[:4]})
		pool.Unpin(pool.Get(pages[0]))
		pool.Unpin(pool.Get(pages[1]))
		// Pool full (4 pages). Next get must evict 6 or 7, never 0/1.
		pool.Unpin(pool.Get(pages[2]))
		if !pool.Contains(pages[0]) || !pool.Contains(pages[1]) {
			t.Error("PBM evicted a requested page while unrequested pages existed")
		}
		if pool.Contains(pages[6]) && pool.Contains(pages[7]) {
			t.Error("no unrequested page was evicted")
		}
	})
	eng.Run()
}

// TestEvictionPrefersFurthestFuture: among requested pages, the one with
// the largest estimated next-consumption time is evicted first.
func TestEvictionPrefersFurthestFuture(t *testing.T) {
	cfg := testCfg()
	cfg.EvictBatch = 1
	eng, p, pool, pages := pbmFixture(t, 2, 8, cfg)
	eng.Go("q", func() {
		id := p.RegisterScan([][]*storage.Page{pages[:6]})
		// Scan at page 0 moving slowly: page 1 is due sooner than page 5.
		eng.Sleep(50 * time.Millisecond)
		p.ReportScanPosition(id, 100) // some progress so speed is known
		pool.Unpin(pool.Get(pages[1]))
		pool.Unpin(pool.Get(pages[5]))
		pool.Unpin(pool.Get(pages[2])) // forces one eviction
		if !pool.Contains(pages[1]) {
			t.Error("evicted the page needed soonest")
		}
		if pool.Contains(pages[5]) {
			t.Error("kept the page needed furthest in the future")
		}
	})
	eng.Run()
}

func TestSpeedEstimation(t *testing.T) {
	eng, p, _, pages := pbmFixture(t, 4, 8, testCfg())
	eng.Go("q", func() {
		id := p.RegisterScan([][]*storage.Page{pages[:4]})
		if p.ScanSpeed(id) != 0 {
			t.Error("speed known before any report")
		}
		eng.Sleep(time.Second)
		p.ReportScanPosition(id, 1000)
		got := p.ScanSpeed(id)
		if got < 900 || got > 1100 {
			t.Errorf("speed = %v, want ~1000 tuples/s", got)
		}
		// Speed quintuples over a full window; the EWMA moves toward it
		// but not all the way.
		eng.Sleep(time.Second)
		p.ReportScanPosition(id, 1000+5000)
		got2 := p.ScanSpeed(id)
		if got2 <= got || got2 >= 5000 {
			t.Errorf("EWMA speed = %v, want between %v and 5000", got2, got)
		}
	})
	eng.Run()
}

func TestPassedPagesDropClaims(t *testing.T) {
	eng, p, pool, pages := pbmFixture(t, 8, 8, testCfg())
	eng.Go("q", func() {
		id := p.RegisterScan([][]*storage.Page{pages[:4]})
		pool.Unpin(pool.Get(pages[0]))
		eng.Sleep(10 * time.Millisecond)
		// Scan consumed past page 0 entirely.
		p.ReportScanPosition(id, pages[0].LastSID()+10)
		pool.Unpin(pool.Get(pages[0])) // re-access triggers re-bucketing
		sizes := p.BucketSizes()
		if sizes[len(sizes)-1] != 1 {
			t.Errorf("passed page should be unrequested: %v", sizes)
		}
	})
	eng.Run()
}

func TestRefreshShiftsTimeline(t *testing.T) {
	eng, p, pool, pages := pbmFixture(t, 8, 8, testCfg())
	eng.Go("q", func() {
		id := p.RegisterScan([][]*storage.Page{pages[:8]})
		_ = id
		pool.Unpin(pool.Get(pages[7])) // far future page under DefaultSpeed
		before := bucketOf(p, pages[7])
		if before <= 0 {
			t.Fatalf("expected far-future bucket, got %d", before)
		}
		// Let a lot of virtual time pass without scan progress; the
		// timeline shifts left, so the page's bucket index must not grow.
		eng.Sleep(500 * time.Millisecond)
		p.refresh()
		after := bucketOf(p, pages[7])
		if after > before {
			t.Errorf("bucket moved right after refresh: %d -> %d", before, after)
		}
	})
	eng.Run()
}

// After an idle period the next entry point catches the timeline up in
// at most one span of shifts, however long the idle was (replaying every
// missed slice cost ~3 s of mutex-held work per idle hour), and pages
// cached before the jump are still bucketed by their estimate and
// evicted in the right order after it. Engine constants (NewEngine).
func TestRefreshBoundedAfterIdle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TimeSlice = 500 * time.Microsecond
	cfg.NumGroups = 12
	cfg.DefaultSpeed = 1e8
	cfg.EvictBatch = 1
	clk := &fakeClock{}
	p := New(clk, cfg)
	pages := make([]*storage.Page, 41)
	for i := range pages {
		pages[i] = &storage.Page{ID: storage.PageID(i + 1), Tuples: 100_000, Bytes: storage.PageSize}
	}
	scanned, unwanted := pages[:40], pages[40]
	id := p.RegisterScan([][]*storage.Page{scanned})
	near, far := &buffer.Frame{Page: scanned[1]}, &buffer.Frame{Page: scanned[39]}
	idle := &buffer.Frame{Page: unwanted}
	for _, f := range []*buffer.Frame{near, far, idle} {
		p.Admitted(f)
	}
	nearWas, farWas := bucketOf(p, near.Page), bucketOf(p, far.Page)
	if nearWas <= 0 || farWas <= nearWas {
		t.Fatalf("fixture: near page in bucket %d, far page in %d", nearWas, farWas)
	}

	clk.t = sim.Time(time.Hour)
	before := p.shifts
	p.ReportScanPosition(id, 0)
	span := sim.Duration(cfg.BucketsPerGroup) * cfg.TimeSlice * (1<<uint(cfg.NumGroups) - 1)
	if got, max := p.shifts-before, int64(span/cfg.TimeSlice)+1; got > max {
		t.Fatalf("%d shifts after a 1 h jump, want at most %d (one span)", got, max)
	}
	if p.timePassed+sim.Time(cfg.TimeSlice) <= clk.t {
		t.Fatalf("timeline at %v after catching up to %v", p.timePassed, clk.t)
	}
	// The scan has not moved, so the estimates have not: each page was
	// re-pushed at its estimate's bucket and has drifted left of it at most.
	for _, c := range []struct {
		f   *buffer.Frame
		was int
	}{{near, nearWas}, {far, farWas}} {
		if b := bucketOf(p, c.f.Page); b < 0 || b > c.was {
			t.Errorf("page %d in bucket %d after the jump, was in %d", c.f.Page.ID, b, c.was)
		}
	}
	if b := bucketOf(p, unwanted); b != len(p.buckets) {
		t.Errorf("unrequested page in bucket %d, want the not-requested bucket", b)
	}
	for _, want := range []*buffer.Frame{idle, far, near} {
		got := p.Victim()
		if got != want {
			t.Fatalf("victim order after the jump: got %v, want page %d", got, want.Page.ID)
		}
		p.Removed(got)
	}
}

func bucketOf(p *PBM, pg *storage.Page) int {
	m := p.pages[pg.ID]
	if m == nil || m.bucket == nil {
		return -1
	}
	for i, b := range p.buckets {
		if b == m.bucket {
			return i
		}
	}
	if m.bucket == p.notRequested {
		return len(p.buckets)
	}
	return -1
}

// Property: after any interleaving of scan registration, access and time
// passage, every resident page is in exactly one bucket and bucket size
// accounting is consistent.
func TestPropertyBucketAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		eng, p, pool, pages := pbmFixture(t, 6, 12, testCfg())
		ok := true
		eng.Go("q", func() {
			var ids []ScanID
			resident := 0
			for _, op := range ops {
				switch op % 4 {
				case 0:
					ids = append(ids, p.RegisterScan([][]*storage.Page{pages[int(op)%6 : 6+int(op)%6]}))
				case 1:
					pool.Unpin(pool.Get(pages[int(op)%len(pages)]))
				case 2:
					eng.Sleep(sim.Duration(op) * time.Millisecond)
					if len(ids) > 0 {
						p.ReportScanPosition(ids[len(ids)-1], int64(op)*100)
					}
				case 3:
					if len(ids) > 0 {
						p.UnregisterScan(ids[0])
						ids = ids[1:]
					}
				}
				total := 0
				for _, s := range p.BucketSizes() {
					total += s
				}
				resident = 0
				for _, pg := range pages {
					if pool.Contains(pg) {
						resident++
					}
				}
				if total != resident {
					ok = false
				}
			}
		})
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPBMLRUHistoricalPlacement: in LRU mode, a page with periodic reuse
// history goes onto the counter-rotating timeline, not the tail bucket.
func TestPBMLRUHistoricalPlacement(t *testing.T) {
	cfg := testCfg()
	cfg.LRUMode = true
	eng, p, pool, pages := pbmFixture(t, 8, 8, cfg)
	eng.Go("q", func() {
		for i := 0; i < 4; i++ {
			pool.Unpin(pool.Get(pages[0]))
			eng.Sleep(20 * time.Millisecond)
		}
		m := p.pages[pages[0].ID]
		if m == nil || m.bucket == nil {
			t.Fatal("page has no bucket")
		}
		if m.bucket == p.notRequested {
			t.Error("page with reuse history fell into the tail bucket")
		}
	})
	eng.Run()
}

// TestPBMvsLRUScanSharing is the headline behaviour: two staggered scans
// over the same table with a pool half the table size. Under PBM the
// trailing scan reuses pages ahead of the leading scan far better than
// under LRU.
func TestPBMBeatsLRUOnConcurrentScans(t *testing.T) {
	run := func(mkPolicy func(eng *sim.Engine) buffer.Policy) buffer.Stats {
		eng := sim.NewEngine()
		disk := iosim.New(rt.Sim(eng), iosim.Config{Bandwidth: 200e6, SeekLatency: 10 * time.Microsecond})
		var pol buffer.Policy = mkPolicy(eng)
		nPages := 64
		pool := buffer.NewPool(rt.Sim(eng), disk, pol, int64(nPages/2)*storage.PageSize)

		cat := storage.NewCatalog()
		tb, _ := cat.CreateTable("t", storage.Schema{{Name: "a", Type: storage.Int64, Width: 8}})
		perPage := storage.PageSize / 8
		data := storage.NewColumnData()
		data.I64[0] = make([]int64, nPages*perPage)
		s, _ := tb.Master().Append(data)
		pages := s.Pages(0)

		// The trailing scan starts far enough behind that LRU's 32-page
		// window has already evicted what it needs, while PBM keeps the
		// pages soonest-needed (the window right ahead of the trailer).
		scan := func(stagger sim.Duration) {
			eng.Sleep(stagger)
			var id ScanID
			pbmPol, isPBM := pol.(*PBM)
			if isPBM {
				id = pbmPol.RegisterScan([][]*storage.Page{pages})
			}
			consumed := int64(0)
			for _, pg := range pages {
				f := pool.Get(pg)
				eng.Sleep(2 * time.Millisecond) // CPU work per page
				consumed += int64(pg.Tuples)
				if isPBM {
					pbmPol.ReportScanPosition(id, consumed)
				}
				pool.Unpin(f)
			}
			if isPBM {
				pbmPol.UnregisterScan(id)
			}
		}
		eng.Go("s1", func() { scan(0) })
		eng.Go("s2", func() { scan(100 * time.Millisecond) })
		eng.Run()
		return pool.Stats()
	}
	lru := run(func(*sim.Engine) buffer.Policy { return buffer.NewLRU() })
	pbm := run(func(eng *sim.Engine) buffer.Policy { return New(eng, testCfg()) })
	if pbm.Misses >= lru.Misses {
		t.Fatalf("PBM misses %d, LRU misses %d: PBM should win", pbm.Misses, lru.Misses)
	}
}

// TestAllocsPBMSteadyState pins the hot entry points at zero allocations
// once a page's claims and use history exist: an access, a progress
// report and a full victim batch, refilled, over resident pages each
// claimed by three overlapping scans.
func TestAllocsPBMSteadyState(t *testing.T) {
	cfg := DefaultConfig()
	p, frames, ids := residentClaimed(64, 3, 1000, cfg)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		p.Accessed(frames[i%len(frames)])
		p.ReportScanPosition(ids[i%len(ids)], 0)
		for j := 0; j < cfg.EvictBatch; j++ {
			if p.Victim() == nil {
				t.Fatal("no victim")
			}
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per access, report and batch refill, want 0", allocs)
	}
}
