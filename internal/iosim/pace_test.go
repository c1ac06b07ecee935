package iosim

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rt"
)

// timerCounter counts the timer calls that reach a real runtime.
type timerCounter struct {
	rt.Runtime
	calls atomic.Int64
}

func (c *timerCounter) Sleep(d rt.Duration) {
	c.calls.Add(1)
	c.Runtime.Sleep(d)
}

func (c *timerCounter) SleepUntil(t rt.Time) {
	c.calls.Add(1)
	c.Runtime.SleepUntil(t)
}

// sleepClock is a real runtime on a clock that moves only when a thread
// sleeps, by exactly what it asked for, or when the test moves it: the
// real work between two pacing calls takes no time on it, so a paced
// thread's lead is what it was charged. It counts the timer calls that
// reach it and sleeps none of them.
type sleepClock struct {
	timerCounter
	now atomic.Int64
}

func (c *sleepClock) Now() rt.Time { return rt.Time(c.now.Load()) }

func (c *sleepClock) Sleep(d rt.Duration) {
	c.calls.Add(1)
	c.now.Add(int64(max(d, 0)))
}

func (c *sleepClock) SleepUntil(t rt.Time) {
	c.calls.Add(1)
	for now := c.now.Load(); now < int64(t) && !c.now.CompareAndSwap(now, int64(t)); now = c.now.Load() {
	}
}

func newSleepClock() *sleepClock {
	return &sleepClock{timerCounter: timerCounter{Runtime: rt.NewReal()}}
}

// TestPaceShortDeviceWait: a paced scan thread's device waits are charged
// to its debt, so reads whose modelled time is below the pacing quantum
// never reach the OS timer — and the device timeline does not notice who
// is waiting: BusyTime, Requests and Seeks equal those of the same reads
// by a requester with no handle, which sleeps out every one. Both queue
// disciplines, a single spindle and a striped batch. The clock moves only
// when a thread sleeps, so on one FIFO spindle the thread owes exactly
// the reads' modelled time.
func TestPaceShortDeviceWait(t *testing.T) {
	// 16 KiB at 200 MB/s is 81.92 µs, plus a 100 µs seek where one
	// applies: the three reads below model 445.76 µs on one spindle.
	const modelled = 3*81920*time.Nanosecond + 2*100*time.Microsecond
	read := func(a *DeviceArray, q *rt.QueryCtx) {
		a.ReadSpansOwner(q, span(7, 1, 16<<10))
		a.ReadSpansOwner(q, span(8, 1, 16<<10)) // sequential: no seek
		a.ReadSpansOwner(q, span(40, 1, 16<<10))
	}
	for _, sched := range []string{SchedFIFO, SchedElevator} {
		for _, devices := range []int{1, 2} {
			cfg := ArrayConfig{
				Config:  Config{Bandwidth: 200e6, SeekLatency: 100 * time.Microsecond, Scheduler: sched},
				Devices: devices, StripeChunk: 4,
			}
			paced := newSleepClock()
			pa := NewArray(paced, cfg)
			q := rt.NewQueryCtx(paced).Fork()
			read(pa, q)
			// An elevator requester also waits, outside pacing, for its
			// window: a yield, and sleeps until its device frees. Only the
			// wait for the transfer itself is charged instead of slept.
			if sched == SchedFIFO && paced.calls.Load() != 0 {
				t.Errorf("%s/%d: paced reads reached the timer %d times, want 0", sched, devices, paced.calls.Load())
			}
			if lead := q.Lead(); sched == SchedFIFO && devices == 1 && lead != modelled {
				t.Errorf("%s: three reads modelled at %v left the thread owing %v", sched, modelled, lead)
			}
			q.Flush()
			if q.Lead() != 0 {
				t.Errorf("%s/%d: thread still owes %v after Flush", sched, devices, q.Lead())
			}

			raw := newSleepClock()
			ra := NewArray(raw, cfg)
			read(ra, nil)
			if raw.calls.Load() < 3 {
				t.Errorf("%s/%d: unpaced reads reached the timer %d times, want one per read", sched, devices, raw.calls.Load())
			}
			ps, rs := pa.Stats(), ra.Stats()
			if ps.BusyTime != rs.BusyTime || ps.Requests != rs.Requests || ps.Seeks != rs.Seeks || ps.BytesRead != rs.BytesRead {
				t.Errorf("%s/%d: device stats differ by requester: paced %+v, unpaced %+v", sched, devices, ps.Stats, rs.Stats)
			}
		}
	}
}

// TestPaceEarlierArrivalNotQueuedBehindLater: owner A is 800 µs ahead of
// the clock and submits first; owner B has no lead and submits second.
// Both read one 81.92 µs page with a 100 µs seek on one FIFO spindle. The
// device is idle until A's request arrives, so B's fits before it: B ends
// at its own arrival plus its seek and transfer, and A is not moved.
func TestPaceEarlierArrivalNotQueuedBehindLater(t *testing.T) {
	c := newSleepClock()
	c.now.Store(int64(time.Second))
	d := newDisk(c, Config{Bandwidth: 200e6, SeekLatency: 100 * time.Microsecond})
	a := rt.NewQueryCtx(c).Fork()
	if lump := a.Owe(800 * time.Microsecond); lump != 0 {
		t.Fatalf("800µs charge asked for a %v sleep", lump)
	}
	reqA := &ioReq{q: a, block: 7, blocks: 1, bytes: 16 << 10}
	reqB := &ioReq{block: 500, blocks: 1, bytes: 16 << 10}
	d.submit(reqA)
	d.submit(reqB)
	t0, page := c.Now(), rt.Time(181920*time.Nanosecond)
	if reqB.until != t0+page {
		t.Errorf("B, arriving at %v, ends at %v: want %v, not queued behind A", t0, reqB.until, t0+page)
	}
	if want := t0 + rt.Time(800*time.Microsecond) + page; reqA.until != want {
		t.Errorf("A ends at %v, want %v", reqA.until, want)
	}
	if s := d.Stats(); s.Requests != 2 || s.Seeks != 2 || s.BusyTime != 2*rt.Duration(page) {
		t.Errorf("stats %+v, want two seeking reads", s)
	}
}

// TestPaceStretchKeepsNextRun: owner A reads block 7, then, 800 µs ahead
// of the clock, block 8, which continues its run and is charged no seek;
// the device is idle between the two. Owner B's read of block 500 would
// fit in that stretch, but the spindle would then reach block 8 from
// block 500 and owe a seek A's second read was never charged. So B is
// served after A's second read, and every seek the spindle makes is
// charged.
func TestPaceStretchKeepsNextRun(t *testing.T) {
	c := newSleepClock()
	c.now.Store(int64(time.Second))
	d := newDisk(c, Config{Bandwidth: 200e6, SeekLatency: 100 * time.Microsecond})
	a := rt.NewQueryCtx(c).Fork()
	reqA1 := &ioReq{q: a, block: 7, blocks: 1, bytes: 16 << 10}
	d.submit(reqA1)
	if lump := a.Owe(800 * time.Microsecond); lump != 0 {
		t.Fatalf("800µs charge asked for a %v sleep", lump)
	}
	reqA2 := &ioReq{q: a, block: 8, blocks: 1, bytes: 16 << 10}
	reqB := &ioReq{block: 500, blocks: 1, bytes: 16 << 10}
	d.submit(reqA2)
	d.submit(reqB)
	t0, xfer, seek := c.Now(), rt.Time(81920*time.Nanosecond), rt.Time(100*time.Microsecond)
	if want := t0 + rt.Time(800*time.Microsecond) + xfer; reqA2.until != want {
		t.Errorf("A's second read ends at %v, want %v", reqA2.until, want)
	}
	if want := reqA2.until + seek + xfer; reqB.until != want {
		t.Errorf("B ends at %v, want %v, after A's second read", reqB.until, want)
	}
	if s := d.Stats(); s.Requests != 3 || s.Seeks != 2 || s.BusyTime != rt.Duration(3*xfer+2*seek) {
		t.Errorf("stats %+v, want three reads and two seeks", s)
	}
}
