package iosim

import (
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/sim"
)

// TestSkipCancelledOwnerRead: a read whose owner is cancelled by its
// service turn is retired unserviced — no seek, no transfer time, no
// byte accounting — while reads of live owners proceed untouched.
func TestSkipCancelledOwnerRead(t *testing.T) {
	eng := sim.NewEngine()
	d := newTestDisk(eng, 1e6) // 1 MB/s, 1 ms seek
	dead := rt.NewQueryCtx(rt.Sim(eng))
	dead.Cancel(rt.CauseClientCancel)
	live := rt.NewQueryCtx(rt.Sim(eng))
	var deadEnd, liveEnd sim.Time
	eng.Go("r", func() {
		d.ReadSpansOwner(dead, span(0, 1, 100_000)) // would take 0.1 s + seek if serviced
		deadEnd = eng.Now()
		d.ReadSpansOwner(live, span(100, 1, 100_000))
		liveEnd = eng.Now()
	})
	eng.Run()
	if deadEnd != 0 {
		t.Fatalf("skipped read consumed %v of device time", deadEnd)
	}
	if want := sim.Time(100*time.Millisecond + time.Millisecond); liveEnd != want {
		t.Fatalf("live read ended at %v, want %v (skip must not shift device state)", liveEnd, want)
	}
	s := d.Stats()
	if s.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", s.Skipped)
	}
	if s.Requests != 1 || s.BytesRead != 100_000 || s.Seeks != 1 {
		t.Fatalf("skipped read leaked into service accounting: %+v", s.Stats)
	}
}

// TestQueuedReadSkippedWhenOwnerCancelsInQueue: the cancel lands while
// the request is waiting behind a long transfer; at its service turn the
// request is dropped rather than charged to the device.
func TestQueuedReadSkippedWhenOwnerCancelsInQueue(t *testing.T) {
	eng := sim.NewEngine()
	d := newTestDisk(eng, 1e6)
	q := rt.NewQueryCtx(rt.Sim(eng))
	var end sim.Time
	eng.Go("long", func() {
		d.Read(0, 1, 500_000) // 0.5 s: the victim queues behind this
	})
	eng.Go("victim", func() {
		eng.Sleep(time.Millisecond)
		d.ReadSpansOwner(q, span(100, 1, 100_000))
		end = eng.Now()
	})
	eng.Go("canceller", func() {
		q.Cancel(rt.CauseDeadlineExceeded)
	})
	eng.Run()
	s := d.Stats()
	if s.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1: %+v", s.Skipped, s.Stats)
	}
	if s.BytesRead != 500_000 {
		t.Fatalf("victim's bytes were transferred anyway: %+v", s.Stats)
	}
	// The victim returns at its service turn without waiting out a
	// transfer of its own.
	if end >= sim.Time(500*time.Millisecond) {
		t.Fatalf("victim waited out a transfer: end = %v", end)
	}
}

// TestArraySkipsCancelledOwner: the striped-read path must thread the
// owner down to every device, and ArrayStats must sum the skips.
func TestArraySkipsCancelledOwner(t *testing.T) {
	eng := sim.NewEngine()
	a := NewArray(rt.Sim(eng), ArrayConfig{
		Config:  Config{Bandwidth: 1e6, SeekLatency: time.Millisecond},
		Devices: 2,
	})
	dead := rt.NewQueryCtx(rt.Sim(eng))
	dead.Cancel(rt.CauseClientCancel)
	eng.Go("r", func() {
		// Spans covering both devices: every sub-read must be skipped.
		a.ReadSpansOwner(dead, []Span{{Block: 0, Blocks: 1, Bytes: 4096}, {Block: 16, Blocks: 1, Bytes: 4096}})
		a.ReadSpansOwner(dead, span(0, 2, 8192))
	})
	eng.Run()
	s := a.Stats()
	if s.BytesRead != 0 || s.BusyTime != 0 {
		t.Fatalf("cancelled owner's reads were serviced: %+v", s.Stats)
	}
	if s.Skipped == 0 {
		t.Fatalf("no skips recorded: %+v", s.Stats)
	}
	if eng.Now() != 0 {
		t.Fatalf("skipped striped reads advanced time to %v", eng.Now())
	}
}
