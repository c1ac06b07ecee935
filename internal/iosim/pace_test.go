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

// TestPaceShortDeviceWait: a paced scan thread's device waits are charged
// to its debt, so reads whose modelled time is below the pacing quantum
// never reach the OS timer — and the device timeline does not notice who
// is waiting: BusyTime, Requests and Seeks equal those of the same reads
// by a requester with no handle, which sleeps out every one. Both queue
// disciplines, a single spindle and a striped batch.
func TestPaceShortDeviceWait(t *testing.T) {
	// 16 KiB at 200 MB/s is 82 µs, plus a 100 µs seek where one applies:
	// the three reads below model 446 µs on one spindle.
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
			paced := &timerCounter{Runtime: rt.NewReal()}
			pa := NewArray(paced, cfg)
			q := rt.NewQueryCtx(paced).Fork()
			read(pa, q)
			// The elevator's dispatcher sleeps until its device frees, and
			// the requester blocks on it for that long: only the requester's
			// own wait is charged instead of slept.
			if sched == SchedFIFO && paced.calls.Load() != 0 {
				t.Errorf("%s/%d: paced reads reached the timer %d times, want 0", sched, devices, paced.calls.Load())
			}
			if sched == SchedFIFO && devices == 1 {
				if lead := q.Lead(); lead < 400*time.Microsecond || lead > 446*time.Microsecond {
					t.Errorf("%s: three reads modelled at 446µs left the thread owing %v", sched, lead)
				}
			}
			q.Flush()
			if q.Lead() != 0 {
				t.Errorf("%s/%d: thread still owes %v after Flush", sched, devices, q.Lead())
			}

			raw := &timerCounter{Runtime: rt.NewReal()}
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
