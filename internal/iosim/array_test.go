package iosim

import (
	"testing"

	"repro/internal/rt"
	"repro/internal/sim"
)

func newTestArray(eng *sim.Engine, devices, chunk int, bw float64) *DeviceArray {
	return NewArray(rt.Sim(eng), ArrayConfig{
		Config:      Config{Bandwidth: bw, SeekLatency: 0},
		Devices:     devices,
		StripeChunk: chunk,
	})
}

func TestStripingMapsChunksRoundRobin(t *testing.T) {
	eng := sim.NewEngine()
	a := newTestArray(eng, 3, 4, 1e6)
	// Blocks 0..3 -> dev 0, 4..7 -> dev 1, 8..11 -> dev 2, 12..15 -> dev 0.
	for _, tc := range []struct {
		b    BlockID
		dev  int
		loc  BlockID
		edge bool
	}{
		{0, 0, 0, true}, {3, 0, 3, false}, {4, 1, 0, true}, {7, 1, 3, false},
		{8, 2, 0, true}, {11, 2, 3, false}, {12, 0, 4, true}, {15, 0, 7, false},
		{16, 1, 4, true}, {23, 2, 7, false},
	} {
		if got := a.DeviceFor(tc.b); got != tc.dev {
			t.Errorf("DeviceFor(%d) = %d, want %d", tc.b, got, tc.dev)
		}
		if got := a.localBlock(tc.b); got != tc.loc {
			t.Errorf("localBlock(%d) = %d, want %d", tc.b, got, tc.loc)
		}
		if got := a.StripeBoundary(tc.b); got != tc.edge {
			t.Errorf("StripeBoundary(%d) = %v, want %v", tc.b, got, tc.edge)
		}
	}
}

func TestSingleDeviceArrayNeverSplits(t *testing.T) {
	eng := sim.NewEngine()
	a := newTestArray(eng, 1, 4, 1e6)
	if a.StripeBoundary(0) || a.StripeBoundary(4) {
		t.Fatal("single-device array reported a stripe boundary")
	}
	eng.Go("r", func() {
		a.Read(0, 64, 64_000) // crosses 16 chunk boundaries, must stay 1 request
	})
	eng.Run()
	s := a.Stats()
	if s.Requests != 1 || s.BytesRead != 64_000 || s.Seeks != 1 {
		t.Fatalf("stats = %+v, want one unsplit request", s.Stats)
	}
}

// A striped sequential read must complete ~N times faster than on one
// device (each spindle keeps the full per-device bandwidth), and must
// cost at most one seek per device thanks to the device-local block
// mapping.
func TestStripedReadScalesWithDevices(t *testing.T) {
	read := func(devices int) (sim.Time, ArrayStats) {
		eng := sim.NewEngine()
		a := newTestArray(eng, devices, 4, 1e6)
		var end sim.Time
		eng.Go("r", func() {
			a.Read(0, 64, 64_000)
			end = eng.Now()
		})
		eng.Run()
		return end, a.Stats()
	}
	t1, _ := read(1)
	t4, s4 := read(4)
	if t4*3 >= t1 {
		t.Fatalf("4 devices not ~4x faster: t1=%v t4=%v", t1, t4)
	}
	if s4.BytesRead != 64_000 {
		t.Fatalf("aggregate bytes = %d", s4.BytesRead)
	}
	if s4.Seeks != 4 {
		t.Fatalf("seeks = %d, want one first-touch seek per device", s4.Seeks)
	}
	// 64 blocks over 4 devices at chunk 4 => 16 blocks = 16000 bytes each.
	if s4.MaxDeviceBytes != 16_000 || s4.MinDeviceBytes != 16_000 {
		t.Fatalf("skew = max %d / min %d, want balanced 16000", s4.MaxDeviceBytes, s4.MinDeviceBytes)
	}
}

// Reads landing on different spindles must overlap in virtual time; reads
// on the same spindle must still serialize FIFO.
func TestIndependentDevicesProceedConcurrently(t *testing.T) {
	eng := sim.NewEngine()
	a := newTestArray(eng, 2, 4, 1e6)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		i := i
		eng.Go("r", func() {
			a.Read(BlockID(i*4), 4, 100_000) // 0.1s each, chunk i -> device i
			ends = append(ends, eng.Now())
		})
	}
	eng.Run()
	want := sim.Time(100_000_000) // 0.1 s: fully parallel
	if ends[0] != want || ends[1] != want {
		t.Fatalf("ends = %v, want both %v (parallel devices)", ends, want)
	}

	// Same two reads on a 1-device array serialize.
	eng2 := sim.NewEngine()
	a2 := newTestArray(eng2, 1, 4, 1e6)
	var last sim.Time
	for i := 0; i < 2; i++ {
		i := i
		eng2.Go("r", func() {
			a2.Read(BlockID(i*4), 4, 100_000)
			if e := eng2.Now(); e > last {
				last = e
			}
		})
	}
	eng2.Run()
	if last != sim.Time(200_000_000) {
		t.Fatalf("single device last end = %v, want 0.2s (serialized)", last)
	}
}

// ReadSpans must admit all sub-reads up front: a batch of spans owned by
// different devices completes in the time of the slowest device, not the
// sum.
func TestReadSpansOverlapsAcrossDevices(t *testing.T) {
	eng := sim.NewEngine()
	a := newTestArray(eng, 4, 4, 1e6)
	var end sim.Time
	eng.Go("r", func() {
		a.ReadSpans([]Span{
			{Block: 0, Blocks: 4, Bytes: 100_000},  // dev 0
			{Block: 4, Blocks: 4, Bytes: 100_000},  // dev 1
			{Block: 8, Blocks: 4, Bytes: 100_000},  // dev 2
			{Block: 12, Blocks: 4, Bytes: 100_000}, // dev 3
		})
		end = eng.Now()
	})
	eng.Run()
	if want := sim.Time(100_000_000); end != want {
		t.Fatalf("batch end = %v, want %v (all devices in parallel)", end, want)
	}
}

// A span crossing stripe boundaries is priced pro-rata by block count,
// conserving the total byte volume.
func TestReadSpansProRataConservesBytes(t *testing.T) {
	eng := sim.NewEngine()
	a := newTestArray(eng, 3, 4, 1e6)
	eng.Go("r", func() {
		a.ReadSpans([]Span{{Block: 2, Blocks: 17, Bytes: 9_999}}) // ragged on both ends
	})
	eng.Run()
	s := a.Stats()
	if s.BytesRead != 9_999 {
		t.Fatalf("aggregate bytes = %d, want 9999", s.BytesRead)
	}
	var blocks int64
	for _, d := range s.PerDevice {
		if d.BytesRead <= 0 && d.Requests > 0 {
			t.Fatalf("device with requests but no bytes: %+v", s.PerDevice)
		}
		blocks += d.Requests
	}
	// Blocks 2..18 at chunk 4 touch chunks 0..4 => 5 sub-reads.
	if s.Requests != 5 {
		t.Fatalf("requests = %d, want 5 chunk segments", s.Requests)
	}
}

// Ticketed admission: requests are serviced strictly in ticket order, so
// the device queue is FIFO by arrival registration even when the
// bookkeeping of a later ticket would be ready first. The sequence is
// driven from one process to pin the order without racing.
func TestTicketedAdmissionServesInTicketOrder(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(rt.Sim(eng), Config{Bandwidth: 1e6, SeekLatency: 0})
	var order []BlockID
	d.OnRead = func(b BlockID, _ int64) { order = append(order, b) }
	eng.Go("r", func() {
		for i := 0; i < 5; i++ {
			d.Read(BlockID(i*10), 1, 1000)
		}
	})
	eng.Run()
	for i, b := range order {
		if b != BlockID(i*10) {
			t.Fatalf("service order %v, want ticket order", order)
		}
	}
	if d.Stats().MaxQueueLen != 1 {
		t.Fatalf("MaxQueueLen = %d, want 1 for sequential requests", d.Stats().MaxQueueLen)
	}
}

// A degenerate span with fewer bytes than blocks (legal on a bare Disk)
// must not panic on a multi-device array: it is priced whole on the
// first block's owning device, conserving its byte count.
func TestReadSpansDegenerateTinySpan(t *testing.T) {
	eng := sim.NewEngine()
	a := newTestArray(eng, 3, 4, 1e6)
	eng.Go("r", func() {
		a.ReadSpans([]Span{{Block: 2, Blocks: 8, Bytes: 3}}) // crosses 2 chunk boundaries
	})
	eng.Run()
	s := a.Stats()
	if s.BytesRead != 3 || s.Requests != 1 {
		t.Fatalf("stats = %+v, want one 3-byte request", s.Stats)
	}
	// Ragged-but-sufficient bytes still split per chunk and conserve.
	eng2 := sim.NewEngine()
	a2 := newTestArray(eng2, 3, 4, 1e6)
	eng2.Go("r", func() {
		a2.ReadSpans([]Span{{Block: 14, Blocks: 3, Bytes: 3}}) // 1 byte per block
	})
	eng2.Run()
	if s2 := a2.Stats(); s2.BytesRead != 3 || s2.Requests != 2 {
		t.Fatalf("stats = %+v, want 3 bytes over 2 chunk segments", s2.Stats)
	}
}
