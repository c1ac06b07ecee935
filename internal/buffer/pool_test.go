package buffer

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/iosim"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// makePages builds a single-column table with n pages of 8-byte tuples and
// returns its pages.
func makePages(t testing.TB, n int) []*storage.Page {
	t.Helper()
	cat := storage.NewCatalog()
	tb, err := cat.CreateTable("t", storage.Schema{{Name: "a", Type: storage.Int64, Width: 8}})
	if err != nil {
		t.Fatal(err)
	}
	perPage := storage.PageSize / 8
	data := storage.NewColumnData()
	vals := make([]int64, n*perPage)
	for i := range vals {
		vals[i] = int64(i)
	}
	data.I64[0] = vals
	s, err := tb.Master().Append(data)
	if err != nil {
		t.Fatal(err)
	}
	return s.Pages(0)
}

func poolFixture(t testing.TB, policy Policy, capPages int, nPages int) (*sim.Engine, *Pool, []*storage.Page) {
	t.Helper()
	eng := sim.NewEngine()
	disk := iosim.New(rt.Sim(eng), iosim.Config{Bandwidth: 1e9, SeekLatency: 10 * time.Microsecond})
	pool := NewPool(rt.Sim(eng), disk, policy, int64(capPages)*storage.PageSize)
	return eng, pool, makePages(t, nPages)
}

// poolOn builds a pool of capPages pages under policy on r, over a fast
// single device, and nPages pages of one column.
func poolOn(t testing.TB, r rt.Runtime, policy Policy, capPages, nPages int) (*Pool, []*storage.Page) {
	t.Helper()
	disk := iosim.New(r, iosim.Config{Bandwidth: 10e9, SeekLatency: time.Microsecond})
	return NewPool(r, disk, policy, int64(capPages)*storage.PageSize), makePages(t, nPages)
}

// onBothRuntimes runs body as the subtests "sim" and "real", each on a
// fresh runtime of its kind.
func onBothRuntimes(t *testing.T, body func(t *testing.T, r rt.Runtime)) {
	for _, name := range []string{"sim", "real"} {
		t.Run(name, func(t *testing.T) {
			var r rt.Runtime = rt.Sim(sim.NewEngine())
			if name == "real" {
				r = rt.NewReal()
			}
			body(t, r)
		})
	}
}

func TestHitAndMiss(t *testing.T) {
	eng, pool, pages := poolFixture(t, NewLRU(), 4, 8)
	eng.Go("q", func() {
		f := pool.Get(pages[0])
		pool.Unpin(f)
		f = pool.Get(pages[0])
		pool.Unpin(f)
	})
	eng.Run()
	s := pool.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss 1 hit", s)
	}
	if s.BytesLoaded != storage.PageSize {
		t.Fatalf("bytes loaded = %d", s.BytesLoaded)
	}
}

func TestCapacityEnforced(t *testing.T) {
	eng, pool, pages := poolFixture(t, NewLRU(), 4, 16)
	eng.Go("q", func() {
		for _, pg := range pages {
			f := pool.Get(pg)
			if pool.Used() > pool.Capacity() {
				t.Errorf("used %d exceeds capacity %d", pool.Used(), pool.Capacity())
			}
			pool.Unpin(f)
		}
	})
	eng.Run()
	if pool.Stats().Evictions != 12 {
		t.Fatalf("evictions = %d, want 12", pool.Stats().Evictions)
	}
}

func TestLRUEvictsColdest(t *testing.T) {
	eng, pool, pages := poolFixture(t, NewLRU(), 3, 8)
	eng.Go("q", func() {
		for i := 0; i < 3; i++ {
			pool.Unpin(pool.Get(pages[i]))
		}
		pool.Unpin(pool.Get(pages[0])) // touch 0: now 1 is coldest
		pool.Unpin(pool.Get(pages[3])) // evicts 1
		if !pool.Contains(pages[0]) || pool.Contains(pages[1]) {
			t.Error("LRU evicted the wrong page")
		}
	})
	eng.Run()
}

func TestMRUEvictsHottest(t *testing.T) {
	eng, pool, pages := poolFixture(t, NewMRU(), 3, 8)
	eng.Go("q", func() {
		for i := 0; i < 3; i++ {
			pool.Unpin(pool.Get(pages[i]))
		}
		pool.Unpin(pool.Get(pages[3])) // evicts page 2 (the hottest)
		if pool.Contains(pages[2]) || !pool.Contains(pages[0]) {
			t.Error("MRU evicted the wrong page")
		}
	})
	eng.Run()
}

func TestClockSecondChance(t *testing.T) {
	eng, pool, pages := poolFixture(t, NewClock(), 3, 8)
	eng.Go("q", func() {
		for i := 0; i < 3; i++ {
			pool.Unpin(pool.Get(pages[i]))
		}
		// All refbits set; a fill sweep clears them and evicts page 0.
		pool.Unpin(pool.Get(pages[3]))
		if pool.Contains(pages[0]) {
			t.Error("clock did not evict page 0")
		}
	})
	eng.Run()
}

func TestPinnedNeverEvicted(t *testing.T) {
	eng, pool, pages := poolFixture(t, NewLRU(), 3, 8)
	eng.Go("q", func() {
		f0 := pool.Get(pages[0])
		pool.Unpin(pool.Get(pages[1]))
		pool.Unpin(pool.Get(pages[2]))
		pool.Unpin(pool.Get(pages[3])) // must evict 1, not pinned 0
		if !pool.Contains(pages[0]) {
			t.Error("pinned page evicted")
		}
		// Balanced books, but a pin held is not idle.
		if live, idle := pool.Check(false), pool.Check(true); live != nil || idle == nil ||
			idle.Error() != "buffer: at idle, pages [1] pinned, pages [] loading and 0 reservations parked" {
			t.Errorf("Check with page 1 pinned: live %v, idle %v", live, idle)
		}
		pool.Unpin(f0)
	})
	eng.Run()
}

func TestOvercommitPanics(t *testing.T) {
	eng, pool, pages := poolFixture(t, NewLRU(), 2, 8)
	panicked := false
	eng.Go("q", func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		_ = pool.Get(pages[0])
		_ = pool.Get(pages[1])
		_ = pool.Get(pages[2]) // three pins, capacity two
	})
	eng.Run()
	if !panicked {
		t.Fatal("expected overcommit panic")
	}
}

func TestConcurrentMissSharesOneRead(t *testing.T) {
	eng, pool, pages := poolFixture(t, NewLRU(), 4, 8)
	done := 0
	for i := 0; i < 5; i++ {
		eng.Go("q", func() {
			f := pool.Get(pages[0])
			pool.Unpin(f)
			done++
		})
	}
	eng.Run()
	if done != 5 {
		t.Fatalf("done = %d", done)
	}
	s := pool.Stats()
	if s.Misses != 1 || s.Hits != 4 {
		t.Fatalf("stats = %+v, want 1 miss 4 hits", s)
	}
}

func TestGetRunBatchesIO(t *testing.T) {
	eng, pool, pages := poolFixture(t, NewLRU(), 8, 8)
	eng.Go("q", func() {
		f := pool.GetRun(pages[:4])
		pool.Unpin(f)
		for i := 1; i < 4; i++ {
			if !pool.Contains(pages[i]) {
				t.Errorf("page %d not admitted by GetRun", i)
			}
		}
	})
	eng.Run()
	// 3 pages in one batched read plus the pinned head page read: at most
	// 2 disk requests.
	if got := pool.Stats().Misses; got != 4 {
		t.Fatalf("misses = %d, want 4", got)
	}
}

func TestUnpinWithoutPinPanics(t *testing.T) {
	eng, pool, pages := poolFixture(t, NewLRU(), 4, 8)
	panicked := false
	eng.Go("q", func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		f := pool.Get(pages[0])
		pool.Unpin(f)
		pool.Unpin(f)
	})
	eng.Run()
	if !panicked {
		t.Fatal("expected panic")
	}
}

func TestFlushAll(t *testing.T) {
	eng, pool, pages := poolFixture(t, NewLRU(), 4, 8)
	eng.Go("q", func() {
		pool.Unpin(pool.Get(pages[0]))
		f := pool.Get(pages[1])
		pool.FlushAll()
		if pool.Contains(pages[0]) {
			t.Error("unpinned page survived flush")
		}
		if !pool.Contains(pages[1]) {
			t.Error("pinned page flushed")
		}
		pool.Unpin(f)
	})
	eng.Run()
}

// OnAccess sees every reference, hits and misses alike, in request order:
// the OPT replay's trace is built from it.
func TestOnAccessSeesEveryReference(t *testing.T) {
	eng, pool, pages := poolFixture(t, NewLRU(), 4, 8)
	var refs []storage.PageID
	pool.OnAccess = func(p *storage.Page) { refs = append(refs, p.ID) }
	order := []int{2, 0, 2, 3, 1}
	eng.Go("q", func() {
		for _, i := range order {
			pool.Unpin(pool.Get(pages[i]))
		}
	})
	eng.Run()
	if len(refs) != len(order) {
		t.Fatalf("refs = %v, want %d", refs, len(order))
	}
	for i, want := range order {
		if refs[i] != pages[want].ID {
			t.Fatalf("refs = %v, want pages %v in that order", refs, order)
		}
	}
}

// Property: under any access pattern, LRU keeps the pool within capacity
// and never evicts the most recently touched page.
func TestPropertyLRUInvariant(t *testing.T) {
	f := func(accesses []uint8) bool {
		if len(accesses) == 0 {
			return true
		}
		eng, pool, pages := poolFixture(t, NewLRU(), 4, 16)
		ok := true
		eng.Go("q", func() {
			for _, a := range accesses {
				pg := pages[int(a)%len(pages)]
				fr := pool.Get(pg)
				pool.Unpin(fr)
				if pool.Used() > pool.Capacity() {
					ok = false
				}
				if !pool.Contains(pg) {
					ok = false // the page we just touched must be resident
				}
			}
		})
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// neverEvict refuses to offer victims, modelling the saturated states
// (everything pinned or in flight) that block reservations.
type neverEvict struct{}

func (neverEvict) Admitted(*Frame) {}
func (neverEvict) Accessed(*Frame) {}
func (neverEvict) Removed(*Frame)  {}
func (neverEvict) Victim() *Frame  { return nil }

// TestOvercommitPanicsAtOnce: a full pool with nothing pinned or loading,
// whose policy offers no victim, can never make room, and Get says so on
// both runtimes without waiting first: the pin and load counts it checks
// are exact under the pool mutex, so there is nothing to poll for.
func TestOvercommitPanicsAtOnce(t *testing.T) {
	onBothRuntimes(t, func(t *testing.T, r rt.Runtime) {
		pool, pages := poolOn(t, r, neverEvict{}, 1, 2)
		var got any
		var took time.Duration
		r.Go("q", func() {
			pool.Unpin(pool.Get(pages[0])) // full, nothing pinned
			start := time.Now()
			defer func() {
				got, took = recover(), time.Since(start)
			}()
			pool.Get(pages[1])
		})
		r.Run()
		if msg, _ := got.(string); !strings.Contains(msg, "pool overcommitted") {
			t.Fatalf("Get recovered %v, want a pool overcommitted panic", got)
		}
		if took > 100*time.Millisecond {
			t.Errorf("panicked after %v, want within 100ms", took)
		}
	})
}

// Regression: FlushAll must wake one blocked reserver per freed frame, on
// both runtimes. Waking just one stranded the rest forever when a woken
// reserver's page had been admitted meanwhile: it takes the hit path and
// never passes the wake-up on, and with that code this test hangs.
func TestFlushWakesOneReserverPerFreedFrame(t *testing.T) {
	onBothRuntimes(t, func(t *testing.T, r rt.Runtime) {
		pool, pages := poolOn(t, r, neverEvict{}, 3, 8)
		var done atomic.Int64
		r.Go("pinner", func() {
			_ = pool.Get(pages[0]) // pinned for the whole test
			pool.Unpin(pool.Get(pages[1]))
			pool.Unpin(pool.Get(pages[2]))
			for i := 0; i < 3; i++ {
				r.Go("w", func() {
					f := pool.Get(pages[3]) // all three want the same page
					pool.Unpin(f)
					done.Add(1)
				})
			}
			// Flush once all three reservers are parked: the pool is full
			// and the policy offers no victim.
			for pool.Stats().Stalls < 3 {
				r.Sleep(time.Millisecond)
			}
			pool.FlushAll() // frees pages 1 and 2 -> must wake two reservers
		})
		runWithin(t, r)
		if n := done.Load(); n != 3 {
			t.Fatalf("done = %d, want 3", n)
		}
	})
}

// A run with a block gap must still load every page: loadRun splits the
// batches at the gap.
func TestGetRunNonContiguousRunLoadsAll(t *testing.T) {
	eng, pool, pages := poolFixture(t, NewLRU(), 8, 8)
	eng.Go("q", func() {
		run := []*storage.Page{pages[0], pages[1], pages[2], pages[4], pages[5]}
		f := pool.GetRun(run)
		pool.Unpin(f)
		for _, pg := range run {
			if !pool.Contains(pg) {
				t.Errorf("page %d not admitted by non-contiguous GetRun", pg.ID)
			}
		}
		if pool.Contains(pages[3]) {
			t.Error("page outside the run was loaded")
		}
	})
	eng.Run()
	if got := pool.Stats().Misses; got != 5 {
		t.Fatalf("misses = %d, want 5", got)
	}
}

// Regression: when a reservation stall lets another process admit a page
// from the middle of a read-ahead batch, the old loadBatch dropped the
// pages after the contiguity break on the floor — GetRun(run[1:]) pages
// have no later call that would pick them up. They must be re-issued as
// a fresh batch.
func TestGetRunReissuesRemainderAfterRace(t *testing.T) {
	eng, pool, pages := poolFixture(t, neverEvict{}, 4, 10)
	eng.Go("pinner", func() {
		f0 := pool.Get(pages[0])
		f7 := pool.Get(pages[7])
		eng.Sleep(10 * time.Millisecond)
		pool.Unpin(f0)
		pool.Unpin(f7)
		pool.FlushAll()
	})
	eng.Go("runner", func() {
		eng.Sleep(time.Millisecond)
		// Read-ahead batch [2,3,4]; blocks in reserve (pool full of
		// pinned frames, no victims).
		f := pool.GetRun(pages[1:5])
		pool.Unpin(f)
		for i := 1; i < 5; i++ {
			if !pool.Contains(pages[i]) {
				t.Errorf("page %d missing after raced GetRun", i)
			}
		}
	})
	eng.Go("mid", func() {
		eng.Sleep(2 * time.Millisecond)
		// Admits the middle of the runner's batch while it is stalled,
		// breaking the batch's contiguity, and holds the pin across the
		// flush so the page survives.
		f := pool.Get(pages[3])
		eng.Sleep(20 * time.Millisecond)
		pool.Unpin(f)
	})
	eng.Run()
}

// Property: after random Get/GetRun/Unpin/InvalidatePages/FlushAll
// traffic from four processes, on either runtime, the pool is idle and
// its books balance (Check), every reference counted as a hit or a miss,
// every miss was read from the device exactly once, and every call was
// answered. Run with -race: on the real runtime the four are goroutines
// contending for the pool mutex.
func TestPropertyPoolInvariants(t *testing.T) {
	onBothRuntimes(t, func(t *testing.T, r rt.Runtime) {
		const workers, ops = 4, 400
		pool, pages := poolOn(t, r, NewLRU(), 8, 32)
		var refs, calls atomic.Int64
		pool.OnAccess = func(*storage.Page) { refs.Add(1) }
		for w := 0; w < workers; w++ {
			rng := rand.New(rand.NewSource(int64(w) + 1))
			r.Go("worker", func() {
				// At most one pin is held across another request, so the
				// workers' pins plus the largest read-ahead run always fit.
				var held *Frame
				for i := 0; i < ops; i++ {
					at := rng.Intn(len(pages) - 4)
					var f *Frame
					switch op := rng.Intn(20); {
					case op < 12:
						f = pool.Get(pages[at])
					case op < 17:
						f = pool.GetRun(pages[at : at+2+rng.Intn(3)])
					case op < 19:
						pool.InvalidatePages(pages[at : at+4])
						continue
					default:
						pool.FlushAll()
						continue
					}
					calls.Add(1)
					if f.Page != pages[at] || f.Loading() {
						t.Errorf("got frame of page %d (loading=%v), want page %d", f.Page.ID, f.Loading(), pages[at].ID)
					}
					if held != nil {
						pool.Unpin(held)
					}
					held = f
					if rng.Intn(2) == 0 {
						pool.Unpin(held)
						held = nil
					}
				}
				if held != nil {
					pool.Unpin(held)
				}
			})
		}
		r.Run()
		if err := pool.Check(true); err != nil {
			t.Error(err)
		}
		if s := pool.Stats(); s.Hits+s.Misses != refs.Load() {
			t.Errorf("hits %d + misses %d != %d references", s.Hits, s.Misses, refs.Load())
		}
		if refs.Load() < calls.Load() {
			t.Errorf("%d references for %d calls", refs.Load(), calls.Load())
		}
		if s, read := pool.Stats(), pool.disk.Stats().BytesRead; s.BytesLoaded != s.Misses*storage.PageSize || s.BytesLoaded != read {
			t.Errorf("misses %d, bytes loaded %d, device read %d", s.Misses, s.BytesLoaded, read)
		}
	})
}

// Property: hits + misses equals total accesses for every policy.
func TestPropertyAccountingBalances(t *testing.T) {
	policies := []func() Policy{
		func() Policy { return NewLRU() },
		func() Policy { return NewMRU() },
		func() Policy { return NewClock() },
	}
	for _, mk := range policies {
		mk := mk
		f := func(accesses []uint8) bool {
			if len(accesses) == 0 {
				return true
			}
			eng, pool, pages := poolFixture(t, mk(), 4, 16)
			eng.Go("q", func() {
				for _, a := range accesses {
					pool.Unpin(pool.Get(pages[int(a)%len(pages)]))
				}
			})
			eng.Run()
			s := pool.Stats()
			return pool.Check(true) == nil && s.Hits+s.Misses == int64(len(accesses))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%T: %v", mk(), err)
		}
	}
}

// GetRun's read-ahead batch over a striped array must split at stripe
// boundaries into one sub-read per chunk segment, each carrying its exact
// page bytes to the owning device — and the sub-reads must overlap across
// devices, so the batch completes in the slowest device's time, not the
// sum.
func TestLoadBatchSplitsAtStripeBoundaries(t *testing.T) {
	eng := sim.NewEngine()
	// 2 devices, stripe chunk of 4 blocks.
	disk := iosim.NewArray(rt.Sim(eng), iosim.ArrayConfig{
		Config:      iosim.Config{Bandwidth: 1e6, SeekLatency: 0},
		Devices:     2,
		StripeChunk: 4,
	})
	pages := makePages(t, 16)
	pool := NewPool(rt.Sim(eng), disk, NewLRU(), int64(len(pages))*storage.PageSize)
	var end sim.Time
	eng.Go("q", func() {
		f := pool.GetRun(pages) // one 16-block contiguous run
		pool.Unpin(f)
		end = eng.Now()
	})
	eng.Run()
	s := disk.Stats()
	// Pages occupy blocks 1..16 (the catalog allocates from 1). GetRun
	// batches the read-ahead tail (blocks 2..16), which the stripe split
	// cuts into 5 chunk segments — {2,3} {4..7} {8..11} {12..15} {16} —
	// and the pinned head page (block 1) is its own read: 6 requests.
	if s.Requests != 6 {
		t.Fatalf("requests = %d, want 5 chunk segments + 1 head page", s.Requests)
	}
	if s.BytesRead != 16*storage.PageSize {
		t.Fatalf("bytes = %d, want exact page bytes", s.BytesRead)
	}
	// Chunks alternate devices, so each spindle owns 8 of the 16 pages.
	if s.MaxDeviceBytes != s.MinDeviceBytes || s.MaxDeviceBytes != 8*storage.PageSize {
		t.Fatalf("skew max=%d min=%d, want balanced 8 pages each", s.MaxDeviceBytes, s.MinDeviceBytes)
	}
	// The batch's device halves overlap: device 0 carries 7 batch pages,
	// device 1 carries 8, so the batch completes at 8 pages' transfer
	// time and the head-page read lands right after it on device 0 — 9
	// page-times total instead of the 16 a single spindle needs.
	pageTime := sim.Time(float64(storage.PageSize) / 1e6 * 1e9)
	if want := 9 * pageTime; end != want {
		t.Fatalf("end = %v, want %v (devices overlapped)", end, want)
	}

	// The same run on a single device stays one unsplit request.
	eng1 := sim.NewEngine()
	disk1 := iosim.New(rt.Sim(eng1), iosim.Config{Bandwidth: 1e6, SeekLatency: 0})
	pages1 := makePages(t, 16)
	pool1 := NewPool(rt.Sim(eng1), disk1, NewLRU(), int64(len(pages1))*storage.PageSize)
	eng1.Go("q", func() {
		pool1.Unpin(pool1.GetRun(pages1))
	})
	eng1.Run()
	if s1 := disk1.Stats(); s1.Requests != 2 {
		t.Fatalf("single-device requests = %d, want 1 unsplit batch + 1 head page", s1.Requests)
	}
}

// Property: on a 4-device array each device transfers exactly the bytes
// of the pages it owns, whatever batches the pool loads — random Get and
// GetRun calls over columns of widths 8, 3 and 5, so page sizes mix and
// every column ends in a partial page. The pool cuts its batches into
// spans at stripe-chunk starts (iosim.DeviceArray.AppendSpan) with exact
// page bytes; nothing is re-priced on the way to the devices.
func TestPropertyPoolSpansExactBytes(t *testing.T) {
	cat := storage.NewCatalog()
	tb, err := cat.CreateTable("t", storage.Schema{
		{Name: "a", Type: storage.Int64, Width: 8},
		{Name: "b", Type: storage.Int64, Width: 3},
		{Name: "c", Type: storage.Int64, Width: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := storage.NewColumnData()
	for c := 0; c < 3; c++ {
		data.I64[c] = make([]int64, 20000)
	}
	snap, err := tb.Master().Append(data)
	if err != nil {
		t.Fatal(err)
	}
	var pages []*storage.Page
	var total int64
	for c := 0; c < 3; c++ {
		for _, pg := range snap.Pages(c) {
			pages = append(pages, pg)
			total += pg.Bytes
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		disk := iosim.NewArray(rt.Sim(eng), iosim.ArrayConfig{
			Config:      iosim.Config{Bandwidth: 1e9, SeekLatency: time.Microsecond},
			Devices:     4,
			StripeChunk: 4,
		})
		pool := NewPool(rt.Sim(eng), disk, NewLRU(), total)
		want := make([]int64, disk.Devices())
		loaded := map[*storage.Page]bool{}
		eng.Go("q", func() {
			for i := 0; i < 12; i++ {
				at := rng.Intn(len(pages))
				run := pages[at : at+1+rng.Intn(min(10, len(pages)-at))]
				pool.Unpin(pool.GetRun(run))
				for _, pg := range run {
					if !loaded[pg] {
						loaded[pg] = true
						want[disk.DeviceFor(pg.Block)] += pg.Bytes
					}
				}
			}
		})
		eng.Run()
		for d, s := range disk.Stats().PerDevice {
			if s.BytesRead != want[d] {
				t.Errorf("seed %d: device %d read %d bytes, owns %d of the loaded pages", seed, d, s.BytesRead, want[d])
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidatePagesDropsUnpinnedOnly: invalidation evicts resident
// unpinned frames of the given pages, leaves pinned frames (a running
// scan over the retired snapshot) and unrelated pages alone, and
// reports the drop count.
func TestInvalidatePagesDropsUnpinnedOnly(t *testing.T) {
	eng, pool, pages := poolFixture(t, NewLRU(), 8, 8)
	eng.Go("q", func() {
		pinned := pool.Get(pages[0])
		for _, pg := range pages[1:4] {
			pool.Unpin(pool.Get(pg))
		}
		// Retire pages 0..3; page 0 is pinned and must survive.
		if got := pool.InvalidatePages(pages[:4]); got != 3 {
			t.Errorf("dropped %d frames, want 3", got)
		}
		if !pool.Contains(pages[0]) {
			t.Error("pinned frame was invalidated")
		}
		for _, pg := range pages[1:4] {
			if pool.Contains(pg) {
				t.Errorf("retired page %v still resident", pg.ID)
			}
		}
		// Invalidating absent pages is a no-op.
		if got := pool.InvalidatePages(pages[4:]); got != 0 {
			t.Errorf("dropped %d non-resident frames", got)
		}
		pool.Unpin(pinned)
	})
	eng.Run()
	if used := pool.Used(); used != storage.PageSize {
		t.Fatalf("used = %d, want one resident page", used)
	}
}
