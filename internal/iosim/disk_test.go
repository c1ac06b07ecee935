package iosim

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rt"
	"repro/internal/sim"
)

// newTestDisk is a 1-device array with a 1 ms seek: one spindle's queue.
func newTestDisk(eng *sim.Engine, bw float64) *DeviceArray {
	return New(rt.Sim(eng), Config{Bandwidth: bw, SeekLatency: time.Millisecond})
}

func TestSequentialReadTime(t *testing.T) {
	eng := sim.NewEngine()
	d := newTestDisk(eng, 1e6) // 1 MB/s
	var end sim.Time
	eng.Go("r", func() {
		d.Read(0, 1, 500_000) // 0.5 MB => 0.5 s + 1 ms seek
		end = eng.Now()
	})
	eng.Run()
	want := sim.Time(500*time.Millisecond + time.Millisecond)
	if end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestSequentialRunSkipsSeek(t *testing.T) {
	eng := sim.NewEngine()
	d := newTestDisk(eng, 1e6)
	eng.Go("r", func() {
		d.Read(0, 4, 1000)
		d.Read(4, 1, 1000)  // continues the run: no seek
		d.Read(10, 1, 1000) // jump: seek
	})
	eng.Run()
	if got := d.Stats().Seeks; got != 2 {
		t.Fatalf("seeks = %d, want 2 (first touch + jump)", got)
	}
}

func TestConcurrentReadersQueueFIFO(t *testing.T) {
	eng := sim.NewEngine()
	d := newTestDisk(eng, 1e6)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		eng.Go("r", func() {
			d.Read(BlockID(i*100), 1, 100_000) // 0.1 s each + seek
			ends = append(ends, eng.Now())
		})
	}
	eng.Run()
	if len(ends) != 3 {
		t.Fatalf("got %d ends", len(ends))
	}
	for i := 1; i < 3; i++ {
		if ends[i] <= ends[i-1] {
			t.Fatalf("ends not increasing: %v", ends)
		}
	}
	// Third request finishes after ~0.303 s (serialized), not ~0.101 s.
	if ends[2] < sim.Time(300*time.Millisecond) {
		t.Fatalf("requests did not serialize: third end = %v", ends[2])
	}
}

func TestStatsAccumulate(t *testing.T) {
	eng := sim.NewEngine()
	d := newTestDisk(eng, 1e9)
	eng.Go("r", func() {
		for i := 0; i < 10; i++ {
			d.Read(BlockID(i*2), 1, 4096)
		}
	})
	eng.Run()
	s := d.Stats()
	if s.Requests != 10 || s.BytesRead != 40960 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Seeks != 10 { // every read jumps by 2 blocks
		t.Fatalf("seeks = %d, want 10", s.Seeks)
	}
	d.ResetStats()
	if d.Stats().Requests != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestOnReadHook(t *testing.T) {
	eng := sim.NewEngine()
	d := newTestDisk(eng, 1e9)
	var seen []BlockID
	d.devices[0].OnRead = func(b BlockID, _ int64) { seen = append(seen, b) }
	eng.Go("r", func() {
		d.Read(5, 1, 100)
		d.Read(9, 1, 100)
	})
	eng.Run()
	if len(seen) != 2 || seen[0] != 5 || seen[1] != 9 {
		t.Fatalf("seen = %v", seen)
	}
}

func TestBadReadPanics(t *testing.T) {
	eng := sim.NewEngine()
	d := newTestDisk(eng, 1e9)
	panicked := false
	eng.Go("r", func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		d.Read(0, 0, 0)
	})
	eng.Run()
	if !panicked {
		t.Fatal("expected panic")
	}
}

// Property: total virtual time for N serialized reads is at least the sum
// of their transfer times (device can't transfer faster than bandwidth).
func TestPropertyBandwidthIsCeiling(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 32 {
			return true
		}
		eng := sim.NewEngine()
		d := New(rt.Sim(eng), Config{Bandwidth: 1e6, SeekLatency: 0})
		var total int64
		var end sim.Time
		eng.Go("r", func() {
			for i, s := range sizes {
				n := int64(s) + 1
				total += n
				d.Read(BlockID(i*10), 1, n)
			}
			end = eng.Now()
		})
		eng.Run()
		// Each read's duration truncates to whole nanoseconds, so allow
		// one nanosecond of slack per request.
		minTime := sim.Time(float64(total)/1e6*1e9) - sim.Time(len(sizes))
		return end >= minTime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
