package pbm

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
)

func TestThrottleDisabledByDefault(t *testing.T) {
	p, lead, _ := throttleScenario(t, DefaultThrottleConfig())
	if d := p.ThrottleAdvice(lead); d != 0 {
		t.Fatalf("disabled throttle advised a %v pause", d)
	}
}

// throttleScenario builds the case the advice exists for — a leading scan
// racing ahead of a crawling trailer over the same pages, with requested
// pages already evicted so the horizon is set — under throttle
// configuration tc, and returns the two scans.
func throttleScenario(t *testing.T, tc ThrottleConfig) (p *PBM, lead, trail ScanID) {
	t.Helper()
	cfg := testCfg()
	cfg.EvictBatch = 1
	eng, p, pool, pages := pbmFixture(t, 2, 8, cfg)
	p.SetThrottle(tc)
	eng.Go("q", func() {
		lead = p.RegisterScan([][]*storage.Page{pages[:8]})
		trail = p.RegisterScan([][]*storage.Page{pages[:8]})
		// Leader races ahead, trailer crawls.
		eng.Sleep(10 * time.Millisecond)
		p.ReportScanPosition(lead, 8000)
		p.ReportScanPosition(trail, 100)
		eng.Sleep(10 * time.Millisecond)
		p.ReportScanPosition(lead, 16000)
		p.ReportScanPosition(trail, 200)
		// Force evictions of requested pages to set a short horizon.
		pool.Unpin(pool.Get(pages[5]))
		pool.Unpin(pool.Get(pages[6]))
		pool.Unpin(pool.Get(pages[7]))
	})
	eng.Run()
	if p.EvictionHorizon() <= 0 {
		t.Fatal("no horizon")
	}
	return p, lead, trail
}

func TestEvictionHorizonTracksEvictedPages(t *testing.T) {
	cfg := testCfg()
	cfg.EvictBatch = 1
	eng, p, pool, pages := pbmFixture(t, 2, 8, cfg)
	eng.Go("q", func() {
		id := p.RegisterScan([][]*storage.Page{pages[:8]})
		eng.Sleep(100 * time.Millisecond)
		p.ReportScanPosition(id, 10) // slow scan: far pages have big estimates
		// Fill the 2-page pool with far-future pages; the third get
		// evicts one that a scan still wants -> horizon updates.
		pool.Unpin(pool.Get(pages[5]))
		pool.Unpin(pool.Get(pages[6]))
		pool.Unpin(pool.Get(pages[7]))
		if p.EvictionHorizon() <= 0 {
			t.Error("eviction horizon not updated")
		}
	})
	eng.Run()
}

func TestShouldThrottleLeadingScan(t *testing.T) {
	tc := DefaultThrottleConfig()
	tc.Enabled = true
	p, lead, trail := throttleScenario(t, tc)
	if d := p.ThrottleAdvice(lead); d != tc.Pause {
		t.Errorf("leading scan advised %v despite trailing scan beyond horizon, want the %v pause", d, tc.Pause)
	}
	if d := p.ThrottleAdvice(trail); d != 0 {
		t.Errorf("trailing scan advised to pause %v", d)
	}
	// A progress report carries the same advice back to the scan.
	if d := p.ReportScanPosition(lead, 16000); d != tc.Pause {
		t.Errorf("report returned advice %v, want %v", d, tc.Pause)
	}
}

func TestShouldThrottleNoTrailerNoAdvice(t *testing.T) {
	cfg := testCfg()
	eng, p, _, pages := pbmFixture(t, 4, 8, cfg)
	tc := DefaultThrottleConfig()
	tc.Enabled = true
	p.SetThrottle(tc)
	eng.Go("q", func() {
		id := p.RegisterScan([][]*storage.Page{pages[:8]})
		eng.Sleep(10 * time.Millisecond)
		p.ReportScanPosition(id, 1000)
		p.evictHorizon = 1e6 // pretend evictions happened
		if d := p.ThrottleAdvice(id); d != 0 {
			t.Errorf("sole scan advised to pause %v", d)
		}
	})
	eng.Run()
}

func TestThrottlePauseConfigured(t *testing.T) {
	tc := ThrottleConfig{Enabled: true, Pause: sim.Duration(5 * time.Millisecond), Margin: 1}
	p, lead, _ := throttleScenario(t, tc)
	if d := p.ThrottleAdvice(lead); d != tc.Pause {
		t.Fatalf("advice = %v, want the configured %v", d, tc.Pause)
	}
}
