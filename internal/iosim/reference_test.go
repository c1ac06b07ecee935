package iosim

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/sim"
)

// refDisk is one spindle's timeline as it was before the device kept its
// idle stretches: a request started when the clock, its arrival and the
// end of the previous reservation had all passed (refAssign), so a
// request waited behind an earlier-submitted one that arrived later. It
// is the oracle TestDifferentialTimeline holds Disk.assign to.
type refDisk struct {
	bandwidth   float64
	seekLatency rt.Duration
	elevator    bool
	busyUntil   rt.Time
	lastBlock   BlockID
	haveLast    bool
	stats       Stats
}

// refAssign returns the request's completion time and its reservation.
func (d *refDisk) refAssign(req *ioReq, now rt.Time) (until rt.Time, dur rt.Duration) {
	dur = rt.Duration(float64(req.bytes) / d.bandwidth * 1e9)
	head := d.lastBlock + 1
	seek := req.block != head
	if d.elevator {
		seek = req.block < head
	}
	if !d.haveLast || seek {
		dur += d.seekLatency
		d.stats.Seeks++
	}
	until = max(now, req.arrive, d.busyUntil) + rt.Time(dur)
	d.busyUntil = until
	d.lastBlock = req.block + BlockID(req.blocks) - 1
	d.haveLast = true
	d.stats.Requests++
	d.stats.BytesRead += req.bytes
	d.stats.BusyTime += dur
	return until, dur
}

// timelineStep is one request of a timeline script: the clock advance
// before it, the owner's lead, and the block run it reads.
type timelineStep struct {
	advance, lead rt.Duration
	block         BlockID
	blocks        int
}

// randomTimeline draws requests from four owners, each reading its own
// sequential run of blocks with an occasional jump, so the script mixes
// sequential continuations and seeks the way concurrent scans do.
func randomTimeline(rng *rand.Rand, leads bool) []timelineStep {
	next := []BlockID{0, 10_000, 20_000, 30_000}
	steps := make([]timelineStep, 1+rng.Intn(200))
	for i := range steps {
		o := rng.Intn(len(next))
		if rng.Intn(8) == 0 {
			next[o] += BlockID(rng.Intn(50))
		}
		s := &steps[i]
		s.block, s.blocks = next[o], 1+rng.Intn(4)
		next[o] += BlockID(s.blocks)
		s.advance = rt.Duration(rng.Intn(300)) * time.Microsecond
		if leads && rng.Intn(2) == 0 {
			s.lead = rt.Duration(rng.Intn(1500)) * time.Microsecond
		}
	}
	return steps
}

// window is one reservation on a device timeline.
type window struct{ start, end rt.Time }

// reservation is one request's window on a timeline with the blocks it
// read and whether it was charged a seek.
type reservation struct {
	window
	first, last BlockID
	seek        bool
}

// playTimeline assigns a script on a Disk and on refDisk, in script
// order, and returns both timelines in script order. It fails the test if
// a request starts before it arrives.
func playTimeline(t *testing.T, steps []timelineStep, cfg Config) (got, want []reservation, gs, ws Stats) {
	d := newDisk(rt.Sim(sim.NewEngine()), cfg)
	ref := &refDisk{bandwidth: cfg.Bandwidth, seekLatency: cfg.SeekLatency, elevator: cfg.Scheduler == SchedElevator}
	var now rt.Time
	for _, s := range steps {
		now += rt.Time(s.advance)
		bytes := int64(s.blocks) * 16 << 10
		first, last := s.block, s.block+BlockID(s.blocks)-1
		req := &ioReq{block: s.block, blocks: s.blocks, bytes: bytes, arrive: now + rt.Time(s.lead)}
		busy, seeks := d.stats.BusyTime, d.stats.Seeks
		d.assign(req, now)
		r := reservation{window{req.until - rt.Time(d.stats.BusyTime-busy), req.until}, first, last, d.stats.Seeks > seeks}
		if r.start < req.arrive {
			t.Fatalf("request %d started at %v, before it arrived at %v", len(got), r.start, req.arrive)
		}
		got = append(got, r)
		seeks = ref.stats.Seeks
		until, refDur := ref.refAssign(&ioReq{block: s.block, blocks: s.blocks, bytes: bytes, arrive: req.arrive}, now)
		want = append(want, reservation{window{until - rt.Time(refDur), until}, first, last, ref.stats.Seeks > seeks})
	}
	return got, want, d.stats, ref.stats
}

// TestDifferentialTimeline holds the device timeline to refAssign over
// random scripts on both disciplines' seek rules. When every request
// arrives at the clock (the simulator, unpaced owners), every window and
// every counter is the reference's. With owners ahead of the clock:
//   - no request starts before it arrives and no two transfers overlap;
//   - the spindle's reservations, taken in time order, are each charged
//     a seek wherever the one before leaves the head elsewhere, whatever
//     order they were made in;
//   - the requests, bytes and transfer time are the reference's;
//   - a request is charged a seek the reference did not charge it only
//     right after a request served in an idle stretch: that request
//     moved the head of the reference's timeline, not of the tail of this
//     one, so Seeks exceeds the reference's by at most one per stretch
//     served in;
//   - on a device with no seek latency, where no seek choice costs
//     anything, BusyTime is the reference's and no request starts later
//     than it did there.
//
// BusyTime is not the reference's in general: serving a request earlier
// changes which block the head leaves for the request after it, so a
// request can seek here and not in the reference (it continued the run
// the reference had just served) or the other way round.
func TestDifferentialTimeline(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 900; trial++ {
		cfg := Config{Bandwidth: 200e6, SeekLatency: 100 * time.Microsecond}
		if trial%2 == 1 {
			cfg.Scheduler = SchedElevator
		}
		steps := randomTimeline(rng, false)
		got, want, gs, ws := playTimeline(t, steps, cfg)
		if !slices.Equal(got, want) || gs != ws {
			t.Fatalf("trial %d, no leads: timeline or stats differ from the reference\ngot  %v %+v\nwant %v %+v", trial, got, gs, want, ws)
		}

		if trial%3 == 2 {
			cfg.SeekLatency = 0
		}
		steps = randomTimeline(rng, true)
		got, want, gs, ws = playTimeline(t, steps, cfg)
		continues := func(r, prev reservation) bool {
			if cfg.Scheduler == SchedElevator {
				return r.first > prev.last
			}
			return r.first == prev.last+1
		}
		spindle := slices.Clone(got)
		slices.SortFunc(spindle, func(a, b reservation) int { return int(a.start - b.start) })
		for i, r := range spindle {
			if i > 0 && r.start < spindle[i-1].end {
				t.Fatalf("trial %d: transfers %v and %v overlap", trial, spindle[i-1].window, r.window)
			}
			if !r.seek && (i == 0 || !continues(r, spindle[i-1])) {
				t.Fatalf("trial %d: %+v is charged no seek after %+v", trial, r, spindle[max(i-1, 0)])
			}
		}
		xfer := func(s Stats) rt.Duration { return s.BusyTime - rt.Duration(s.Seeks)*cfg.SeekLatency }
		if gs.Requests != ws.Requests || gs.BytesRead != ws.BytesRead || xfer(gs) != xfer(ws) {
			t.Fatalf("trial %d: stats %+v, reference %+v", trial, gs, ws)
		}
		var tail rt.Time
		filled := false
		for i, r := range got {
			if r.seek && !want[i].seek && !filled {
				t.Fatalf("trial %d: request %d %+v seeks, and did not in the reference", trial, i, r)
			}
			filled = r.end <= tail
			tail = max(tail, r.end)
		}
		if cfg.SeekLatency != 0 {
			continue
		}
		if gs.BusyTime != ws.BusyTime {
			t.Fatalf("trial %d: busy %v with no seek latency, reference %v", trial, gs.BusyTime, ws.BusyTime)
		}
		for i := range got {
			if got[i].start > want[i].start {
				t.Fatalf("trial %d: request %d starts at %v, reference %v", trial, i, got[i].start, want[i].start)
			}
		}
	}
}
