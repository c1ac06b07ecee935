package workload

import (
	"reflect"
	"testing"
	"time"
)

// ioBoundServeConfig is a serving point where the disk is the bottleneck
// (slow per-device bandwidth, everything arriving at once), so adding
// spindles has something to speed up.
func ioBoundServeConfig() ServeConfig {
	cfg := tinyServeConfig()
	cfg.Policy = PBM
	cfg.BandwidthMB = 40
	cfg.ArrivalRate = 2000
	cfg.MPL = 8
	cfg.QueueDepth = -1
	// The tiny table spans too few blocks for the default 16-block chunk
	// to reach every spindle of a 4-device array (the skew counters catch
	// exactly this); stripe finer so all spindles participate.
	cfg.StripeChunk = 4
	return cfg
}

// Multi-device runs must stay bit-reproducible on the simulator: same
// seed, same table, across runs — including scheduler latencies, pool
// counters, per-tenant stats, and the per-device disk counters.
func TestServeMultiDeviceDeterministic(t *testing.T) {
	for _, devices := range []int{1, 4} {
		devices := devices
		run := func() *ServeResult {
			cfg := ioBoundServeConfig()
			cfg.Devices = devices
			return RunServe(tinyDB, cfg)
		}
		a, b := run(), run()
		if a.Sched != b.Sched || a.TotalIOBytes != b.TotalIOBytes || a.ElapsedSec != b.ElapsedSec {
			t.Fatalf("devices=%d nondeterministic:\n%+v io=%d t=%v\n%+v io=%d t=%v",
				devices, a.Sched, a.TotalIOBytes, a.ElapsedSec, b.Sched, b.TotalIOBytes, b.ElapsedSec)
		}
		if !reflect.DeepEqual(a.DiskStats, b.DiskStats) {
			t.Fatalf("devices=%d nondeterministic disk stats:\n%+v\n%+v", devices, a.DiskStats, b.DiskStats)
		}
		if len(a.DiskStats.PerDevice) != devices {
			t.Fatalf("got %d device stat entries, want %d", len(a.DiskStats.PerDevice), devices)
		}
	}
}

// Striping must actually buy I/O parallelism on an I/O-bound serving
// point: with 4 spindles the same workload finishes sooner and the
// achieved aggregate read bandwidth (bytes / makespan) goes up.
func TestServeMoreDevicesRaiseReadBandwidth(t *testing.T) {
	run := func(devices int) *ServeResult {
		cfg := ioBoundServeConfig()
		cfg.Devices = devices
		return RunServe(tinyDB, cfg)
	}
	r1, r4 := run(1), run(4)
	mbps := func(r *ServeResult) float64 {
		return float64(r.DiskStats.BytesRead) / 1e6 / r.ElapsedSec
	}
	if r1.ElapsedSec <= 0 || r4.ElapsedSec <= 0 {
		t.Fatalf("missing makespans: %v %v", r1.ElapsedSec, r4.ElapsedSec)
	}
	if mbps(r4) <= mbps(r1) {
		t.Fatalf("4-device read bandwidth %.1f MB/s not above 1-device %.1f MB/s",
			mbps(r4), mbps(r1))
	}
	if r4.ElapsedSec >= r1.ElapsedSec {
		t.Fatalf("4-device makespan %.4fs not below 1-device %.4fs", r4.ElapsedSec, r1.ElapsedSec)
	}
	// Striping must spread the bytes: every spindle transfers something.
	if r4.DiskStats.MinDeviceBytes == 0 {
		t.Fatalf("idle spindle: %+v", r4.DiskStats)
	}
}

// Multi-device serving on the real-threaded runtime: the end-to-end
// -race check of the array fan-out under concurrent scans, for both the
// pool path and the ABM (CScan) path.
func TestServeMultiDeviceRealSmoke(t *testing.T) {
	for _, pol := range []Policy{PBM, CScan} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := tinyRealServeConfig()
			cfg.Policy = pol
			cfg.Devices = 4
			cfg.StripeChunk = 4
			type outcome struct{ res *ServeResult }
			ch := make(chan outcome, 1)
			go func() { ch <- outcome{RunServe(tinyDB, cfg)} }()
			var res *ServeResult
			select {
			case o := <-ch:
				res = o.res
			case <-time.After(120 * time.Second):
				t.Fatal("real-mode multi-device serve run hung")
			}
			if res.TotalIOBytes <= 0 {
				t.Fatal("no I/O recorded")
			}
			if len(res.DiskStats.PerDevice) != 4 {
				t.Fatalf("device stats entries = %d, want 4", len(res.DiskStats.PerDevice))
			}
			var sum int64
			for _, d := range res.DiskStats.PerDevice {
				sum += d.BytesRead
			}
			if sum != res.DiskStats.BytesRead || sum <= 0 {
				t.Fatalf("device bytes %d != aggregate %d", sum, res.DiskStats.BytesRead)
			}
		})
	}
}

// The bandwidth win must materialize on the real runtime too. Concurrent
// serving runs read racy byte volumes (cache hits depend on wall-clock
// interleaving), so this pins the cleanest striping effect instead: a
// single closed-loop stream whose read-ahead batches fan out over the
// spindles. The I/O volume is then identical across device counts and
// the modeled device sleeps dominate the wall clock, so 4 spindles must
// finish the same byte volume measurably faster than 1. Skipped in
// -short (it really sleeps for the modeled I/O).
func TestRealMoreDevicesRaiseReadBandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison; skipped in -short")
	}
	run := func(devices int) *Result {
		cfg := tinyMicroConfig()
		cfg.Real = true
		cfg.Policy = LRU
		cfg.Streams = 1
		cfg.ThreadsPerQuery = 1
		cfg.QueriesPerStream = 2
		cfg.RangePercents = []int{100}
		cfg.BufferFrac = 1.0 // cold pass only: every load is a read-ahead batch
		// Slow enough that modeled device time dwarfs per-sleep wall
		// overhead (the sim-mode gap at this point is ~40ms, far above
		// time.Sleep jitter).
		cfg.BandwidthMB = 2
		cfg.Devices = devices
		// Block-interleaved striping and a deep read-ahead window: the
		// scan's load batches are the whole parallelism window of a single
		// stream, so every batch must span all spindles.
		cfg.StripeChunk = 1
		cfg.ReadAheadTuples = 65536
		return RunMicro(tinyDB, cfg)
	}
	r1, r4 := run(1), run(4)
	if r1.TotalIOBytes != r4.TotalIOBytes {
		t.Fatalf("single-stream I/O volume diverged: %d vs %d", r1.TotalIOBytes, r4.TotalIOBytes)
	}
	mbps := func(r *Result) float64 {
		return float64(r.DiskStats.BytesRead) / 1e6 / r.MaxStreamSec
	}
	if mbps(r4) <= mbps(r1) {
		t.Fatalf("4-device real read bandwidth %.1f MB/s not above 1-device %.1f MB/s (times %.3fs vs %.3fs)",
			mbps(r4), mbps(r1), r4.MaxStreamSec, r1.MaxStreamSec)
	}
}
