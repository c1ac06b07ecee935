package iosim

import (
	"reflect"
	"strings"
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

// span is a batch of one span, for reads that lie inside one stripe chunk.
func span(b BlockID, blocks int, bytes int64) []Span {
	return []Span{{Block: b, Blocks: blocks, Bytes: bytes}}
}

// runSpans builds the batch for blocks consecutive blocks from b, each of
// bytesPerBlock, the way callers do: one AppendSpan per block.
func runSpans(a *DeviceArray, b BlockID, blocks int, bytesPerBlock int64) []Span {
	var spans []Span
	for i := 0; i < blocks; i++ {
		spans = a.AppendSpan(spans, b+BlockID(i), bytesPerBlock)
	}
	return spans
}

func TestStripingMapsChunksRoundRobin(t *testing.T) {
	eng := sim.NewEngine()
	a := newTestArray(eng, 3, 4, 1e6)
	// Blocks 0..3 -> dev 0, 4..7 -> dev 1, 8..11 -> dev 2, 12..15 -> dev 0.
	for _, tc := range []struct {
		b   BlockID
		dev int
		loc BlockID
	}{
		{0, 0, 0}, {3, 0, 3}, {4, 1, 0}, {7, 1, 3},
		{8, 2, 0}, {11, 2, 3}, {12, 0, 4}, {15, 0, 7},
		{16, 1, 4}, {23, 2, 7},
	} {
		if got := a.DeviceFor(tc.b); got != tc.dev {
			t.Errorf("DeviceFor(%d) = %d, want %d", tc.b, got, tc.dev)
		}
		if got := a.localBlock(tc.b); got != tc.loc {
			t.Errorf("localBlock(%d) = %d, want %d", tc.b, got, tc.loc)
		}
	}
}

// TestAppendSpan: a 1-device array never cuts a contiguous run; a
// multi-device array cuts it exactly at stripe-chunk starts; a block that
// does not continue the last span starts a new one on either. Bytes are
// summed exactly per span.
func TestAppendSpan(t *testing.T) {
	type blk struct {
		b     BlockID
		bytes int64
	}
	for _, tc := range []struct {
		name    string
		devices int
		blocks  []blk
		want    []Span
	}{
		{"one device never cuts", 1,
			[]blk{{2, 10}, {3, 20}, {4, 30}, {5, 40}, {6, 50}, {7, 60}, {8, 70}, {9, 80}},
			[]Span{{2, 8, 360}}},
		{"one device gap", 1,
			[]blk{{2, 10}, {3, 20}, {7, 5}},
			[]Span{{2, 2, 30}, {7, 1, 5}}},
		{"four devices cut at chunk starts", 4,
			[]blk{{2, 10}, {3, 20}, {4, 30}, {5, 40}, {6, 50}, {7, 60}, {8, 70}, {9, 80}},
			[]Span{{2, 2, 30}, {4, 4, 180}, {8, 2, 150}}},
		{"four devices gap inside a chunk", 4,
			[]blk{{4, 1}, {6, 2}, {7, 3}},
			[]Span{{4, 1, 1}, {6, 2, 5}}},
		{"four devices backwards", 4,
			[]blk{{5, 1}, {4, 2}},
			[]Span{{5, 1, 1}, {4, 1, 2}}},
	} {
		a := newTestArray(sim.NewEngine(), tc.devices, 4, 1e6)
		var got []Span
		for _, b := range tc.blocks {
			got = a.AppendSpan(got, b.b, b.bytes)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: spans = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSingleDeviceArrayNeverSplits(t *testing.T) {
	eng := sim.NewEngine()
	a := newTestArray(eng, 1, 4, 1e6)
	spans := runSpans(a, 0, 64, 1000) // crosses 16 chunk boundaries
	if len(spans) != 1 {
		t.Fatalf("AppendSpan cut a 1-device run into %v", spans)
	}
	eng.Go("r", func() { a.ReadSpansOwner(nil, spans) })
	eng.Run()
	s := a.Stats()
	if s.Requests != 1 || s.BytesRead != 64_000 || s.Seeks != 1 {
		t.Fatalf("stats = %+v, want one unsplit request", s.Stats)
	}
}

// TestReadSpansRefusesCrossingSpan: on a multi-device array a span that
// crosses a stripe chunk has no one owning device; it is refused, naming
// the span, instead of being re-priced. A 1-device array takes it whole.
func TestReadSpansRefusesCrossingSpan(t *testing.T) {
	for _, devices := range []int{1, 3} {
		eng := sim.NewEngine()
		a := newTestArray(eng, devices, 4, 1e6)
		var got any
		eng.Go("r", func() {
			defer func() { got = recover() }()
			a.ReadSpansOwner(nil, span(2, 8, 9_999))
		})
		eng.Run()
		msg, _ := got.(string)
		if devices == 1 && got != nil {
			t.Errorf("1 device: refused a long span: %v", got)
		}
		if devices > 1 && !strings.Contains(msg, "{Block:2 Blocks:8 Bytes:9999}") {
			t.Errorf("%d devices: recovered %v, want a panic naming the span", devices, got)
		}
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
			a.ReadSpansOwner(nil, runSpans(a, 0, 64, 1000))
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

// ReadSpansOwner must admit all spans up front: a batch of spans owned by
// different devices completes in the time of the slowest device, not the
// sum.
func TestReadSpansOverlapsAcrossDevices(t *testing.T) {
	eng := sim.NewEngine()
	a := newTestArray(eng, 4, 4, 1e6)
	var end sim.Time
	eng.Go("r", func() {
		a.ReadSpansOwner(nil, []Span{
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

// Ticketed admission: requests are serviced strictly in ticket order, so
// the device queue is FIFO by arrival registration even when the
// bookkeeping of a later ticket would be ready first. The sequence is
// driven from one process to pin the order without racing.
func TestTicketedAdmissionServesInTicketOrder(t *testing.T) {
	eng := sim.NewEngine()
	a := New(rt.Sim(eng), Config{Bandwidth: 1e6, SeekLatency: 0})
	var order []BlockID
	a.devices[0].OnRead = func(b BlockID, _ int64) { order = append(order, b) }
	eng.Go("r", func() {
		for i := 0; i < 5; i++ {
			a.Read(BlockID(i*10), 1, 1000)
		}
	})
	eng.Run()
	for i, b := range order {
		if b != BlockID(i*10) {
			t.Fatalf("service order %v, want ticket order", order)
		}
	}
	if a.Stats().MaxQueueLen != 1 {
		t.Fatalf("MaxQueueLen = %d, want 1 for sequential requests", a.Stats().MaxQueueLen)
	}
}
