package scanshare_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	scanshare "repro"
	"repro/wire"
)

// TestServeRowWireCompat: ServeRow is the wire schema, and the wire form
// round-trips into itself — consumers of old `scanbench -json` files
// parse new ones and vice versa.
func TestServeRowWireCompat(t *testing.T) {
	row := scanshare.ServeRow{
		Rate: 5, MPL: 8, Policy: "PBM", Devices: 4,
		IOSched: "elevator", Tier: "tiered-rr", Admission: "wfq",
		Completed: 100, Rejected: 3, TimedOut: 2, Cancelled: 1,
		ToPct: 1.9, CanPct: 0.9, Throughput: 42.5,
		P50ms: 10, P95ms: 50, P99ms: 90, QWaitP95ms: 12.5, SLOPct: 97.5,
		IOMB: 123.4, Selectivity: 0.1, SkipPct: 88.8, ReadMBps: 456.7,
		Seeks: 9, Skew: 1.25,
		TenantP95ms: []float64{40, 60}, TenantSLOPct: []float64{99, 95},
	}
	b, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	var back wire.ServeStats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	c, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, c) {
		t.Errorf("wire.ServeStats does not round-trip:\n in: %s\nout: %s", b, c)
	}
}

// TestServeRowLabels pins what the one row mapper decides: every axis
// label of a row, the tier's included, is read off the effective
// ServeConfig that ran.
func TestServeRowLabels(t *testing.T) {
	base := scanshare.DefaultServeConfig()
	for name, c := range map[string]struct {
		mutate func(*scanshare.ServeConfig)
		want   func(*scanshare.ServeRow)
	}{
		"defaults": {func(*scanshare.ServeConfig) {}, func(*scanshare.ServeRow) {}},
		"cscan": {
			func(c *scanshare.ServeConfig) { c.Policy = scanshare.CScan },
			func(r *scanshare.ServeRow) { r.Policy = "CScans" },
		},
		"explicit axes": {
			func(c *scanshare.ServeConfig) {
				c.ArrivalRate, c.MPL, c.Devices = 5, 32, 4
				c.IOScheduler, c.AdmissionPolicy = "elevator", "wfq"
			},
			func(r *scanshare.ServeRow) {
				r.Rate, r.MPL, r.Devices, r.IOSched, r.Admission = 5, 32, 4, "elevator", "wfq"
			},
		},
		"tiered-rr": {
			func(c *scanshare.ServeConfig) { c.Devices, c.Tier = 4, "tiered-rr" },
			func(r *scanshare.ServeRow) { r.Devices, r.Tier = 4, "tiered-rr" },
		},
		"tiered-temp": {
			func(c *scanshare.ServeConfig) { c.Devices, c.Tier = 4, "tiered-temp" },
			func(r *scanshare.ServeRow) { r.Devices, r.Tier = 4, "tiered-temp" },
		},
		"selectivity": {
			func(c *scanshare.ServeConfig) { c.Selectivities = []float64{0.01} },
			func(r *scanshare.ServeRow) { r.Selectivity = 0.01 },
		},
	} {
		cfg := base
		c.mutate(&cfg)
		// The defaults: "" reads fifo, 0 devices reads 1, no tier is flat.
		want := scanshare.ServeRow{
			Rate: 8, MPL: 8, Policy: "PBM", Devices: 1,
			IOSched: "fifo", Tier: "flat", Admission: "fifo", Selectivity: 1, Skew: 1,
		}
		c.want(&want)
		if got := scanshare.ServeRowOf(&scanshare.ServeResult{}, cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestServeEngineConfigDefaults pins the configuration scanserved runs
// with no flags — the point the serve-* benchmark workloads run at: the
// serving defaults, not the sweep's first-of-axis ones.
func TestServeEngineConfigDefaults(t *testing.T) {
	cfg := scanshare.NewServeEngineConfig(scanshare.Options{SF: 0.01, Seed: 7}, scanshare.ServeAxes{})
	want := scanshare.DefaultServeConfig()
	want.Seed = 7
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("empty axes:\n got %+v\nwant %+v", cfg, want)
	}
	if cfg.Policy != scanshare.PBM || cfg.MPL != 8 ||
		cfg.QueueDepth != 64 || cfg.SLO != 250*time.Millisecond || cfg.Devices > 1 ||
		cfg.IOScheduler != "" || cfg.AdmissionPolicy != "" || cfg.Tier != "" || cfg.Real {
		t.Fatalf("serving defaults moved: %+v", cfg)
	}
	row := scanshare.ServeRowOf(&scanshare.ServeResult{}, cfg)
	if row.Devices != 1 || row.IOSched != "fifo" || row.Admission != "fifo" || row.Tier != "flat" {
		t.Fatalf("default labels moved: %+v", row)
	}

	// Multi-valued axes contribute their first element.
	var axes scanshare.ServeAxes
	axes.MPLs, axes.Devices = []int{4, 8}, []int{4, 1}
	axes.Tiers, axes.AdmissionPolicies = []string{"tiered-rr", "tiered-temp"}, []string{"sesf", "wfq"}
	cfg = scanshare.NewServeEngineConfig(scanshare.Options{}, axes)
	if cfg.MPL != 4 || cfg.Devices != 4 || cfg.Tier != "tiered-rr" || cfg.AdmissionPolicy != "sesf" {
		t.Fatalf("first-of-axis mapping: %+v", cfg)
	}
	if row := scanshare.ServeRowOf(&scanshare.ServeResult{}, cfg); row.Tier != "tiered-rr" {
		t.Fatalf("tier label %q, want tiered-rr", row.Tier)
	}
}

// TestSinglePointRefusesTieredTemp: a single configuration has no
// profiling pass, so tiered-temp as the tier it would run is refused —
// by Check for a binary, by a panic for a library caller — instead of
// silently served, and reported, as tiered-rr.
func TestSinglePointRefusesTieredTemp(t *testing.T) {
	axes := scanshare.ServeAxes{Tiers: []string{"tiered-temp"}}
	if err := axes.Check(true); err != nil {
		t.Fatalf("a sweep takes tiered-temp: %v", err)
	}
	err := axes.Check(false)
	if err == nil || !strings.Contains(err.Error(), `-tiers: bad element "tiered-temp" (valid in a single configuration, which has no profiling pass`) {
		t.Fatalf("Check(false) = %v, want the profiling-pass refusal", err)
	}
	for name, run := range map[string]func(){
		"NewServeEngineConfig": func() { scanshare.NewServeEngineConfig(scanshare.Options{}, axes) },
		"Compare":              func() { scanshare.Compare(scanshare.Options{ServeAxes: axes}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s took tiered-temp", name)
				}
			}()
			run()
		}()
	}
}
