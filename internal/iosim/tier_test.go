package iosim

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/sim"
)

// FastDevices makes the array heterogeneous: the fast device transfers
// its stripe share FastBandwidthX times faster with no seek, the others
// keep the base model.
func TestFastDevicesTier(t *testing.T) {
	eng := sim.NewEngine()
	a := NewArray(rt.Sim(eng), ArrayConfig{
		Config:      Config{Bandwidth: 1e6, SeekLatency: time.Millisecond},
		Devices:     2,
		StripeChunk: 4,
		FastDevices: 1, // SSD-like fast tier on device 0
	})
	var fastEnd, slowEnd sim.Time
	eng.Go("fast", func() {
		a.Read(0, 4, 400_000) // chunk 0 -> device 0: 0.1 s, no seek
		fastEnd = eng.Now()
	})
	eng.Go("slow", func() {
		a.Read(4, 4, 400_000) // chunk 1 -> device 1: 0.4 s + seek
		slowEnd = eng.Now()
	})
	eng.Run()
	if want := sim.Time(100 * time.Millisecond); fastEnd != want {
		t.Fatalf("fast-device read end = %v, want %v (zero seek, 4x bandwidth)", fastEnd, want)
	}
	if want := sim.Time(401 * time.Millisecond); slowEnd != want {
		t.Fatalf("slow-device read end = %v, want %v (base config untouched)", slowEnd, want)
	}
}

// ChunkPlacement overrides striping chunk by chunk; placed chunks occupy
// dense chunk-index-ordered local slots per device and chunks beyond the
// map continue round-robin after them.
func TestChunkPlacementMapsAndSlots(t *testing.T) {
	eng := sim.NewEngine()
	a := NewArray(rt.Sim(eng), ArrayConfig{
		Config:      Config{Bandwidth: 1e6},
		Devices:     2,
		StripeChunk: 4,
		// Chunks 0,2 -> device 1; chunk 1 -> device 0. Chunk 3+ round-robin
		// (3 -> dev 1, 4 -> dev 0, ...).
		ChunkPlacement: []int{1, 0, 1},
	})
	for _, tc := range []struct {
		b   BlockID
		dev int
		loc BlockID
	}{
		{0, 1, 0},  // chunk 0: device 1 slot 0
		{3, 1, 3},  // same chunk, offset 3
		{4, 0, 0},  // chunk 1: device 0 slot 0
		{8, 1, 4},  // chunk 2: device 1 slot 1
		{12, 1, 8}, // chunk 3: round-robin -> dev 1, after its 2 placed chunks
		{16, 0, 4}, // chunk 4: round-robin -> dev 0, after its 1 placed chunk
		{20, 1, 12},
		{24, 0, 8},
	} {
		if got := a.DeviceFor(tc.b); got != tc.dev {
			t.Errorf("DeviceFor(%d) = %d, want %d", tc.b, got, tc.dev)
		}
		if got := a.localBlock(tc.b); got != tc.loc {
			t.Errorf("localBlock(%d) = %d, want %d", tc.b, got, tc.loc)
		}
	}
	// Every device's local chunk space must stay collision-free over a
	// longer block range (placement + round-robin tail).
	seen := map[[2]int64]BlockID{}
	for b := BlockID(0); b < 256; b++ {
		key := [2]int64{int64(a.DeviceFor(b)), int64(a.localBlock(b))}
		if prev, dup := seen[key]; dup {
			t.Fatalf("blocks %d and %d collide at device %d local %d", prev, b, key[0], key[1])
		}
		seen[key] = b
	}
}

// TemperaturePlacement sends the hottest fraction of chunks to the fast
// devices, round-robin within each tier, deterministically.
func TestTemperaturePlacement(t *testing.T) {
	heat := []float64{0, 9, 3, 7, 0, 5, 1, 2}
	got := TemperaturePlacement(heat, 4, 2)
	// Heat rank: 1(9) 3(7) 5(5) 2(3) 7(2) 6(1) 0(0) 4(0). Hot fraction =
	// 8*2/4 = 4 chunks -> fast {0,1} round-robin: 1->0, 3->1, 5->0, 2->1.
	// Cold rank 7,6,0,4 -> slow {2,3} round-robin: 7->2, 6->3, 0->2, 4->3.
	want := []int{2, 0, 1, 1, 3, 0, 3, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("placement = %v, want %v", got, want)
	}
	// Determinism incl. heat ties (chunks 0 and 4 tie at 0 -> lower index first).
	if again := TemperaturePlacement(heat, 4, 2); !reflect.DeepEqual(again, got) {
		t.Fatalf("not deterministic: %v vs %v", again, got)
	}
	// No fast devices: plain round-robin over the slow tier by rank.
	rr := TemperaturePlacement([]float64{1, 1, 1, 1}, 2, 0)
	if !reflect.DeepEqual(rr, []int{0, 1, 0, 1}) {
		t.Fatalf("no-fast placement = %v", rr)
	}
}

// Stats()/ResetStats() racing real-mode reads in flight must never tear or
// trip -race, on a 1-device elevator array and a striped FIFO array.
func TestRealStatsRaceWithReadsInFlight(t *testing.T) {
	r := rt.NewReal()
	d := New(r, Config{Bandwidth: 1e9, SeekLatency: 0, Scheduler: SchedElevator})
	a := NewArray(r, ArrayConfig{
		Config:      Config{Bandwidth: 1e9, SeekLatency: 0},
		Devices:     4,
		StripeChunk: 4,
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				d.Read(BlockID((i*11+j)%64), 1, 4096)
				a.ReadSpansOwner(nil, runSpans(a, BlockID((i*17+j)%64), 8, 1024))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			ds, as := d.Stats(), a.Stats()
			if ds.BytesRead < 0 || as.BytesRead < 0 || as.MinDeviceBytes > as.MaxDeviceBytes {
				t.Errorf("torn snapshot: disk %+v array %+v", ds.Stats, as.Stats)
				return
			}
			if i%50 == 0 {
				d.ResetStats()
				a.ResetStats()
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}
