package abm

import (
	"strings"
	"testing"
	"time"

	"repro/internal/iosim"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// fixture builds a two-column table with nTuples rows.
func fixture(t testing.TB, nTuples int) (*storage.Catalog, *storage.Snapshot) {
	t.Helper()
	cat := storage.NewCatalog()
	tb, err := cat.CreateTable("t", storage.Schema{
		{Name: "wide", Type: storage.Int64, Width: 8},
		{Name: "narrow", Type: storage.Int64, Width: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := storage.NewColumnData()
	a := make([]int64, nTuples)
	b := make([]int64, nTuples)
	for i := range a {
		a[i] = int64(i)
		b[i] = int64(i % 100)
	}
	d.I64[0] = a
	d.I64[1] = b
	s, err := tb.Master().Append(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	return cat, s
}

func newABM(eng *sim.Engine, capBytes int64) *ABM {
	disk := iosim.New(rt.Sim(eng), iosim.Config{Bandwidth: 1e9, SeekLatency: 10 * time.Microsecond})
	return New(rt.Sim(eng), disk, Config{ChunkTuples: 4096, Capacity: capBytes})
}

func TestSingleCScanDeliversAllChunks(t *testing.T) {
	_, snap := fixture(t, 20000) // 5 chunks of 4096
	eng := sim.NewEngine()
	a := newABM(eng, 1<<30)
	var got []int
	eng.Go("scan", func() {
		cs := a.RegisterCScan(snap, []int{0, 1}, []SIDRange{{0, snap.NumTuples()}}, false)
		for {
			d, ok := cs.GetChunk()
			if !ok {
				break
			}
			got = append(got, d.Chunk)
			if err := a.Check(true); err == nil || !strings.HasPrefix(err.Error(), "abm: 1 deliveries unreleased, pages [") {
				t.Errorf("Check(true) with a delivery held = %v", err)
			}
			d.Release()
		}
		cs.Unregister()
		a.Stop()
	})
	eng.Run()
	if err := a.Check(true); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d chunks, want 5: %v", len(got), got)
	}
	seen := make(map[int]bool)
	for _, c := range got {
		if seen[c] {
			t.Fatalf("chunk %d delivered twice", c)
		}
		seen[c] = true
	}
	if a.Stats().BytesLoaded != snap.TotalBytes(nil) {
		t.Fatalf("loaded %d bytes, want %d", a.Stats().BytesLoaded, snap.TotalBytes(nil))
	}
}

func TestRangeScanOnlyTouchesItsChunks(t *testing.T) {
	_, snap := fixture(t, 40960) // 10 chunks
	eng := sim.NewEngine()
	a := newABM(eng, 1<<30)
	var got []int
	eng.Go("scan", func() {
		cs := a.RegisterCScan(snap, []int{0}, []SIDRange{{8192, 16384}}, false) // chunks 2,3
		for {
			d, ok := cs.GetChunk()
			if !ok {
				break
			}
			got = append(got, d.Chunk)
			d.Release()
		}
		cs.Unregister()
		a.Stop()
	})
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("chunks = %v, want exactly {2,3}", got)
	}
	for _, c := range got {
		if c != 2 && c != 3 {
			t.Fatalf("chunk %d out of range", c)
		}
	}
}

// TestSharingLoadsOnce: two concurrent full scans over the same snapshot
// with ample buffer load each page exactly once.
func TestSharingLoadsOnce(t *testing.T) {
	_, snap := fixture(t, 40960)
	eng := sim.NewEngine()
	a := newABM(eng, 1<<30)
	wg := eng.NewWaitGroup()
	scan := func() {
		defer wg.Done()
		cs := a.RegisterCScan(snap, []int{0, 1}, []SIDRange{{0, snap.NumTuples()}}, false)
		for {
			d, ok := cs.GetChunk()
			if !ok {
				break
			}
			eng.Sleep(time.Millisecond) // simulate processing
			d.Release()
		}
		cs.Unregister()
	}
	wg.Add(2)
	eng.Go("s1", scan)
	eng.Go("s2", scan)
	eng.Go("driver", func() {
		wg.Wait()
		a.Stop()
	})
	eng.Run()
	if got, want := a.Stats().BytesLoaded, snap.TotalBytes(nil); got != want {
		t.Fatalf("loaded %d bytes, want %d (each page once)", got, want)
	}
}

// TestOutOfOrderAttach: a second scan arriving mid-way receives cached
// chunks first (out-of-order), so total I/O stays at one table read even
// with a pool that only holds half the table.
func TestOutOfOrderSecondScanReusesCache(t *testing.T) {
	_, snap := fixture(t, 81920) // 20 chunks
	eng := sim.NewEngine()
	total := snap.TotalBytes(nil)
	a := newABM(eng, total*6/10)
	wg := eng.NewWaitGroup()
	order2 := []int{}
	scan := func(collect *[]int, delay sim.Duration) {
		defer wg.Done()
		eng.Sleep(delay)
		cs := a.RegisterCScan(snap, []int{0, 1}, []SIDRange{{0, snap.NumTuples()}}, false)
		for {
			d, ok := cs.GetChunk()
			if !ok {
				break
			}
			if collect != nil {
				*collect = append(*collect, d.Chunk)
			}
			eng.Sleep(2 * time.Millisecond)
			d.Release()
		}
		cs.Unregister()
	}
	wg.Add(2)
	eng.Go("s1", func() { scan(nil, 0) })
	eng.Go("s2", func() { scan(&order2, 8*time.Millisecond) })
	eng.Go("driver", func() {
		wg.Wait()
		a.Stop()
	})
	eng.Run()
	if len(order2) != 20 {
		t.Fatalf("scan2 got %d chunks", len(order2))
	}
	// The second scan must not have consumed strictly in order: it
	// attaches to cached chunks out of order.
	inOrder := true
	for i, c := range order2 {
		if c != i {
			inOrder = false
		}
	}
	if inOrder {
		t.Log("warning: second scan happened to be in order (acceptable but unexpected)")
	}
	// I/O must be far below two full table reads.
	if got := a.Stats().BytesLoaded; got > total*15/10 {
		t.Fatalf("loaded %d bytes, want <= 1.5x table (%d)", got, total*15/10)
	}
}

// TestSharedLocalChunks reproduces §2.1's append scenario: two snapshots
// with a common prefix mark prefix chunks shared; tail chunks are local.
func TestSharedLocalChunks(t *testing.T) {
	cat, snap := fixture(t, 16384) // 4 chunks exactly
	_ = cat
	// Two transactions append different data on top of the master.
	d1 := storage.NewColumnData()
	d1.I64[0] = []int64{1, 2, 3}
	d1.I64[1] = []int64{1, 2, 3}
	snapA, err := snap.Append(d1)
	if err != nil {
		t.Fatal(err)
	}
	d2 := storage.NewColumnData()
	d2.I64[0] = []int64{9}
	d2.I64[1] = []int64{9}
	snapB, err := snap.Append(d2)
	if err != nil {
		t.Fatal(err)
	}

	eng := sim.NewEngine()
	a := newABM(eng, 1<<30)
	wg := eng.NewWaitGroup()
	wg.Add(2)
	run := func(s *storage.Snapshot) {
		defer wg.Done()
		cs := a.RegisterCScan(s, []int{0}, []SIDRange{{0, s.NumTuples()}}, false)
		if got := a.SharedChunkCount(s); cs.remaining > 0 && got == 0 {
			// Before the second scan arrives there is nothing shared;
			// after both registered the prefix must be marked. Checked
			// again below after both registrations.
			_ = got
		}
		for {
			d, ok := cs.GetChunk()
			if !ok {
				break
			}
			eng.Sleep(time.Millisecond)
			d.Release()
		}
		// Both scans active here in the tail of execution: the first 4
		// chunks (common prefix, 16384 tuples) are shared; the appended
		// tail chunk is local.
		cs.Unregister()
	}
	eng.Go("sA", func() { run(snapA) })
	eng.Go("sB", func() { run(snapB) })
	var sharedSeen int
	eng.Go("check", func() {
		eng.Sleep(500 * time.Microsecond) // after both registrations
		sharedSeen = a.SharedChunkCount(snapA)
	})
	eng.Go("driver", func() {
		wg.Wait()
		a.Stop()
	})
	eng.Run()
	if sharedSeen != 4 {
		t.Fatalf("shared chunks = %d, want 4 (the common prefix)", sharedSeen)
	}
}

// TestVersionChangeDropsStaleMetadata models the checkpoint case (iv): a
// scan on a new table version registers fresh metadata, and the old
// version's metadata and pages are destroyed once unused.
func TestVersionChangeDropsStaleMetadata(t *testing.T) {
	cat, snap := fixture(t, 16384)
	_ = cat
	eng := sim.NewEngine()
	a := newABM(eng, 1<<30)
	eng.Go("flow", func() {
		cs := a.RegisterCScan(snap, []int{0}, []SIDRange{{0, snap.NumTuples()}}, false)
		for {
			d, ok := cs.GetChunk()
			if !ok {
				break
			}
			d.Release()
		}
		cs.Unregister()
		usedBefore := a.Used()
		if usedBefore == 0 {
			t.Error("nothing cached after scan")
		}
		// Checkpoint the table: new version, new pages.
		data := storage.NewColumnData()
		data.I64[0] = []int64{1, 2}
		data.I64[1] = []int64{1, 2}
		snap2, err := snap.Table().Checkpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		cs2 := a.RegisterCScan(snap2, []int{0}, []SIDRange{{0, 2}}, false)
		if len(a.tables) != 1 {
			t.Errorf("stale table metadata kept: %d entries", len(a.tables))
		}
		for {
			d, ok := cs2.GetChunk()
			if !ok {
				break
			}
			d.Release()
		}
		cs2.Unregister()
		a.Stop()
	})
	eng.Run()
}

// TestEvictionRespectsKeepRelevance: with a tiny buffer, chunks that other
// scans still want are kept in preference to consumed ones.
func TestEvictionUnderPressure(t *testing.T) {
	_, snap := fixture(t, 81920)
	eng := sim.NewEngine()
	total := snap.TotalBytes([]int{0})
	a := newABM(eng, total/4)
	eng.Go("scan", func() {
		cs := a.RegisterCScan(snap, []int{0}, []SIDRange{{0, snap.NumTuples()}}, false)
		n := 0
		for {
			d, ok := cs.GetChunk()
			if !ok {
				break
			}
			n++
			d.Release()
		}
		if n != 20 {
			t.Errorf("delivered %d chunks, want 20", n)
		}
		cs.Unregister()
		a.Stop()
	})
	eng.Run()
	if a.Used() > total/4 {
		t.Fatalf("used %d exceeds capacity %d", a.Used(), total/4)
	}
	if a.Stats().BytesEvicted == 0 {
		t.Fatal("no evictions under pressure")
	}
}

func TestStarvedQueryPreferred(t *testing.T) {
	// A short query (1 chunk) and a long query (20 chunks) compete; the
	// short one must finish long before the long one finishes, because
	// QueryRelevance prioritizes starved/short queries.
	_, snap := fixture(t, 81920)
	eng := sim.NewEngine()
	disk := iosim.New(rt.Sim(eng), iosim.Config{Bandwidth: 50e6, SeekLatency: 100 * time.Microsecond})
	a := New(rt.Sim(eng), disk, Config{ChunkTuples: 4096, Capacity: 1 << 30})
	var shortDone, longDone sim.Time
	wg := eng.NewWaitGroup()
	wg.Add(2)
	eng.Go("long", func() {
		defer wg.Done()
		cs := a.RegisterCScan(snap, []int{0, 1}, []SIDRange{{0, snap.NumTuples()}}, false)
		for {
			d, ok := cs.GetChunk()
			if !ok {
				break
			}
			eng.Sleep(time.Millisecond)
			d.Release()
		}
		cs.Unregister()
		longDone = eng.Now()
	})
	eng.Go("short", func() {
		defer wg.Done()
		eng.Sleep(5 * time.Millisecond)
		cs := a.RegisterCScan(snap, []int{0, 1}, []SIDRange{{70000, 74096}}, false)
		for {
			d, ok := cs.GetChunk()
			if !ok {
				break
			}
			eng.Sleep(time.Millisecond)
			d.Release()
		}
		cs.Unregister()
		shortDone = eng.Now()
	})
	eng.Go("driver", func() {
		wg.Wait()
		a.Stop()
	})
	eng.Run()
	if shortDone >= longDone {
		t.Fatalf("short query finished at %v, after long query (%v)", shortDone, longDone)
	}
}

func TestBadRangePanics(t *testing.T) {
	_, snap := fixture(t, 8192)
	eng := sim.NewEngine()
	a := newABM(eng, 1<<30)
	panicked := false
	eng.Go("scan", func() {
		defer a.Stop()
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		a.RegisterCScan(snap, []int{0}, []SIDRange{{0, snap.NumTuples() + 1}}, false)
	})
	eng.Run()
	if !panicked {
		t.Fatal("expected panic")
	}
}

// TestInOrderRefused: the in-order delivery mode is gone, so asking for
// it panics instead of silently delivering out of order.
func TestInOrderRefused(t *testing.T) {
	_, snap := fixture(t, 8192)
	eng := sim.NewEngine()
	a := newABM(eng, 1<<30)
	var msg any
	eng.Go("scan", func() {
		defer a.Stop()
		defer func() { msg = recover() }()
		a.RegisterCScan(snap, []int{0}, []SIDRange{{0, snap.NumTuples()}}, true)
	})
	eng.Run()
	if s, _ := msg.(string); !strings.Contains(s, "removed") {
		t.Fatalf("RegisterCScan(..., true) recovered %v, want a panic saying the mode was removed", msg)
	}
}
