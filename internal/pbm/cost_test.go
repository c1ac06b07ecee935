package pbm

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
)

// costPages builds nPages of single-column table pages for scan
// registration without needing an engine or a pool.
func costPages(t *testing.T, nPages int) []*storage.Page {
	t.Helper()
	cat := storage.NewCatalog()
	tb, err := cat.CreateTable("t", storage.Schema{{Name: "a", Type: storage.Int64, Width: 8}})
	if err != nil {
		t.Fatal(err)
	}
	data := storage.NewColumnData()
	data.I64[0] = make([]int64, nPages*(storage.PageSize/8))
	s, err := tb.Master().Append(data)
	if err != nil {
		t.Fatal(err)
	}
	return s.Pages(0)
}

// The admission cost hook must fall back to DefaultSpeed with no
// observed scans, then track the mean of the observed speeds.
func TestCostHookTracksObservedSpeeds(t *testing.T) {
	clk := &fakeClock{}
	cfg := testCfg()
	p := New(clk, cfg)
	pages := costPages(t, 8)

	if got := p.AvgScanSpeed(); got != cfg.DefaultSpeed {
		t.Fatalf("idle AvgScanSpeed %v, want DefaultSpeed %v", got, cfg.DefaultSpeed)
	}
	// 1e6 tuples at the 1e6 tuples/s default => 1 second.
	if got := p.EstimateScanTime(1_000_000); got != time.Second {
		t.Fatalf("idle estimate %v, want 1s", got)
	}
	if p.EstimateScanTime(0) != 0 || p.EstimateScanTime(-5) != 0 {
		t.Fatal("non-positive tuple counts must price to zero")
	}

	// A registered but not-yet-observed scan must not drag the average.
	id1 := p.RegisterScan([][]*storage.Page{pages})
	if got := p.AvgScanSpeed(); got != cfg.DefaultSpeed {
		t.Fatalf("unobserved scan changed AvgScanSpeed to %v", got)
	}

	// First observation: 10000 tuples over 1s => 10000 tuples/s.
	clk.t = sim.Time(time.Second)
	p.ReportScanPosition(id1, 10000)
	if got := p.AvgScanSpeed(); got != 10000 {
		t.Fatalf("AvgScanSpeed %v, want 10000", got)
	}

	// Second scan: 30000 tuples over its own 1s window => 30000 tuples/s;
	// the average over both scans is 20000.
	id2 := p.RegisterScan([][]*storage.Page{pages})
	clk.t = sim.Time(2 * time.Second)
	p.ReportScanPosition(id2, 30000)
	if got := p.AvgScanSpeed(); got != 20000 {
		t.Fatalf("AvgScanSpeed %v, want 20000", got)
	}
	// 50000 tuples at 20000 tuples/s => 2.5s.
	if got := p.EstimateScanTime(50000); got != 2500*time.Millisecond {
		t.Fatalf("estimate %v, want 2.5s", got)
	}

	// Unregistering returns the hook to the remaining scan's speed.
	p.UnregisterScan(id2)
	if got := p.AvgScanSpeed(); got != 10000 {
		t.Fatalf("AvgScanSpeed after unregister %v, want 10000", got)
	}
}

// bench/ builds its PBM through NewGroup until the next [benchmark] PR:
// what it gets must price scans exactly as New's does.
func TestGroupCostHookMatchesSingle(t *testing.T) {
	clk := &fakeClock{}
	cfg := testCfg()
	g := NewGroup(clk, cfg, 4)
	single := New(clk, cfg)
	pages := costPages(t, 8)

	gid := g.RegisterScan([][]*storage.Page{pages})
	sid := single.RegisterScan([][]*storage.Page{pages})
	clk.t = sim.Time(time.Second)
	g.ReportScanPosition(gid, 12000)
	single.ReportScanPosition(sid, 12000)

	if gs, ss := g.AvgScanSpeed(), single.AvgScanSpeed(); gs != ss {
		t.Fatalf("group AvgScanSpeed %v != single %v", gs, ss)
	}
	if ge, se := g.EstimateScanTime(34567), single.EstimateScanTime(34567); ge != se || ge <= 0 {
		t.Fatalf("group estimate %v != single %v", ge, se)
	}
}

// A zero/unset DefaultSpeed must not poison the cost estimate with +Inf:
// the estimate clamps to a positive floor and stays finite, positive and
// monotonic in scan length, so sesf ordering still works on the fallback
// path.
func TestEstimateScanTimeClampsZeroSpeed(t *testing.T) {
	p := New(&fakeClock{}, testCfg())
	// New normalizes a zero DefaultSpeed, so force the hazard directly:
	// any path that leaves the average at zero (or negative) must hit the
	// pricing floor instead of dividing to +Inf.
	p.cfg.DefaultSpeed = 0

	short := p.EstimateScanTime(1_000)
	long := p.EstimateScanTime(2_000)
	if short <= 0 || long <= 0 {
		t.Fatalf("non-positive estimates: short=%v long=%v", short, long)
	}
	if short >= long {
		t.Fatalf("estimate not monotonic on fallback path: short=%v long=%v", short, long)
	}
	// At the 1 tuple/s floor, 1000 tuples price at 1000 seconds exactly.
	if want := sim.Duration(1000 * time.Second); short != want {
		t.Fatalf("short = %v, want %v at the floor speed", short, want)
	}
	// Enormous scans must cap instead of overflowing into negative costs.
	if huge := p.EstimateScanTime(1 << 62); huge <= 0 {
		t.Fatalf("huge scan estimate overflowed: %v", huge)
	}
	if p.EstimateScanTime(0) != 0 {
		t.Fatal("zero tuples must price at zero")
	}
}
