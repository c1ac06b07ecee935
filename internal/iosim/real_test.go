package iosim

import (
	"sync"
	"testing"
	"time"

	"repro/internal/rt"
)

// Ticketed FIFO admission, real runtime: readers that registered (took a
// ticket) while the queue head was still on its way to the mutex must be
// serviced strictly in registration order, not in whatever order
// sync.Mutex barging would wake them. The test takes ticket 0 itself —
// the exact state a production reader occupies between its atomic
// fetch-add and its bookkeeping — so every subsequent reader parks in
// the admission queue; it then registers readers one at a time in a
// known order, releases the queue, and checks the service order. Run
// with -race: it also exercises the admit-condvar paths concurrently.
func TestRealTicketedAdmissionIsFIFO(t *testing.T) {
	a := New(rt.NewReal(), Config{Bandwidth: 1e9, SeekLatency: 0})
	d := a.devices[0]

	var order []BlockID
	d.OnRead = func(b BlockID, _ int64) { order = append(order, b) }

	// Hold ticket 0 (an arrived-but-not-yet-serving request): every
	// subsequent reader takes a later ticket and parks until the test
	// lets ticket 0 be served.
	d.tickets.Add(1)

	ticketsNow := func() int64 { return d.tickets.Load() }

	const readers = 8
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		i := i
		// Admit readers one at a time: spawn reader i, then wait until it
		// has registered (taken ticket i+1) before spawning reader i+1, so
		// the arrival order is pinned even though the goroutines race.
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Read(BlockID(i*100), 1, 1000)
		}()
		deadline := time.Now().Add(5 * time.Second)
		for ticketsNow() != int64(i+2) {
			if time.Now().After(deadline) {
				t.Fatalf("reader %d never registered", i)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	// All readers parked in ticket order; serve the phantom ticket.
	d.mu.Lock()
	d.serving++
	d.admit.Broadcast()
	d.mu.Unlock()
	wg.Wait()

	if len(order) != readers {
		t.Fatalf("served %d reads, want %d", len(order), readers)
	}
	for i, b := range order {
		if b != BlockID(i*100) {
			t.Fatalf("service order %v, want strict ticket/arrival order", order)
		}
	}
	s := d.Stats()
	if s.Requests != readers || s.BytesRead != readers*1000 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxQueueLen != readers {
		t.Fatalf("MaxQueueLen = %d, want %d (all readers queued at once)", s.MaxQueueLen, readers)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.queued != 0 {
		t.Fatalf("queued = %d after completion, want 0", d.queued)
	}
}

// Concurrent striped reads on the real runtime: a -race smoke over the
// DeviceArray fan-out (submit/await/depart across devices) with consistency
// checks on the aggregated counters.
func TestRealArrayConcurrentReads(t *testing.T) {
	r := rt.NewReal()
	a := NewArray(r, ArrayConfig{
		Config:      Config{Bandwidth: 1e9, SeekLatency: time.Microsecond},
		Devices:     4,
		StripeChunk: 4,
	})
	const (
		readers = 8
		reads   = 16
	)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < reads; j++ {
				// 32-block runs from rotating offsets: every read fans out
				// over all four devices.
				a.ReadSpansOwner(nil, runSpans(a, BlockID((i*reads+j)%64), 32, 1024))
			}
		}()
	}
	wg.Wait()
	s := a.Stats()
	if s.BytesRead != readers*reads*32*1024 {
		t.Fatalf("aggregate bytes = %d, want %d", s.BytesRead, readers*reads*32*1024)
	}
	if len(s.PerDevice) != 4 {
		t.Fatalf("per-device stats = %d entries", len(s.PerDevice))
	}
	var sum int64
	for i, ds := range s.PerDevice {
		if ds.BytesRead == 0 {
			t.Fatalf("device %d transferred nothing: %+v", i, s.PerDevice)
		}
		sum += ds.BytesRead
	}
	if sum != s.BytesRead {
		t.Fatalf("device sum %d != aggregate %d", sum, s.BytesRead)
	}
	if s.MinDeviceBytes > s.MaxDeviceBytes {
		t.Fatalf("skew inverted: %+v", s)
	}
}
