package iosim

import (
	"maps"
	"math/rand"
	"reflect"
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

// refElevator is the elevator as it ran before its requesters made their
// own picks: a request only joins its device's pending list; the submit
// that finds no dispatcher running spawns one, a process per device that
// sleeps until the device frees, picks the C-SCAN-best pending request
// (pickNext), gives it its window (assign), wakes every waiting requester
// with one broadcast, and exits when the list drains.
// TestDifferentialElevator holds DeviceArray's elevator to it.
type refElevator struct {
	a           *DeviceArray
	dispatching []bool     // per device, guarded by its mu
	assigned    []rt.Event // per device, fired on every assignment
}

func newRefElevator(a *DeviceArray) *refElevator {
	e := &refElevator{a: a, dispatching: make([]bool, len(a.devices))}
	for range a.devices {
		e.assigned = append(e.assigned, a.r.NewEvent())
	}
	return e
}

// read is ReadSpansOwner on the reference elevator.
func (e *refElevator) read(q *rt.QueryCtx, spans []Span) {
	a := e.a
	subs := make([]subRead, len(spans))
	for i, s := range spans {
		subs[i] = subRead{dev: a.DeviceFor(s.Block), req: ioReq{q: q, block: a.localBlock(s.Block), blocks: s.Blocks, bytes: s.Bytes}}
	}
	for i := range subs {
		e.submit(subs[i].dev, &subs[i].req)
	}
	var until rt.Time
	for i := range subs {
		until = max(until, e.await(subs[i].dev, &subs[i].req))
	}
	q.SleepUntil(a.r, until)
	for i := range subs {
		a.devices[subs[i].dev].depart()
	}
}

// submit queues req on device dev and spawns the device's dispatcher if
// none is running.
func (e *refElevator) submit(dev int, req *ioReq) {
	d := e.a.devices[dev]
	req.ticket = d.tickets.Add(1) - 1
	d.mu.Lock()
	defer d.mu.Unlock()
	d.queued++
	d.stats.MaxQueueLen = max(d.stats.MaxQueueLen, d.queued)
	req.arrive = d.r.Now() + rt.Time(req.q.Lead())
	d.pending = append(d.pending, req)
	if !e.dispatching[dev] {
		e.dispatching[dev] = true
		d.r.Go("ref-elevator", func() { e.refDispatch(dev) })
	}
}

// await parks the requester until the dispatcher has given req its
// window, and returns the window's end.
func (e *refElevator) await(dev int, req *ioReq) rt.Time {
	d := e.a.devices[dev]
	d.mu.Lock()
	for !req.done {
		w := e.assigned[dev].Waiter()
		d.mu.Unlock()
		req.q.Wait(w)
		d.mu.Lock()
	}
	until := req.until
	d.mu.Unlock()
	return until
}

// refDispatch is device dev's dispatcher.
func (e *refElevator) refDispatch(dev int) {
	d := e.a.devices[dev]
	d.mu.Lock()
	for len(d.pending) > 0 {
		now := d.r.Now()
		if d.busyUntil > now {
			until := d.busyUntil
			d.mu.Unlock()
			d.r.SleepUntil(until)
			d.mu.Lock()
			continue
		}
		i := d.pickNext()
		req := d.pending[i]
		d.pending = append(d.pending[:i], d.pending[i+1:]...)
		d.assign(req, now)
		e.assigned[dev].Fire()
	}
	e.dispatching[dev] = false
	d.mu.Unlock()
}

// elevatorOwner is one requester of an elevator script: it scans its own
// region of blocks, never one block twice, so a block names the request
// that read it.
type elevatorOwner struct {
	spawn     bool // first read issued as the run starts, with the other spawned owners
	reads     []elevatorRead
	cancel    time.Duration // owner cancelled at this instant; 0: never
	cancelled bool          // owner cancelled before the run starts
}

// elevatorRead is one read of an elevator script: a run of logical blocks,
// issued delay after the owner's previous read returned (or the start).
type elevatorRead struct {
	delay         time.Duration
	block, blocks int
}

// randomElevatorScript draws owners that read runs of up to six blocks
// with occasional forward jumps, each in a region of its own, the regions
// in random order. With ties, arrivals fall on a 50 µs grid and each read
// follows the last at once, so requests keep arriving at the instant a
// device frees; cancelled owners are cancelled before they read. Without,
// delays are drawn in nanoseconds, some owners start together as the run
// starts, and owners are cancelled mid-run.
func randomElevatorScript(rng *rand.Rand, ties bool) []elevatorOwner {
	owners := make([]elevatorOwner, 2+rng.Intn(4))
	regions := rng.Perm(len(owners))
	for o := range owners {
		ow := &owners[o]
		next := regions[o] * 10_000
		for n := 1 + rng.Intn(8); n > 0; n-- {
			if rng.Intn(4) == 0 {
				next += rng.Intn(40)
			}
			rd := elevatorRead{block: next, blocks: 1 + rng.Intn(6)}
			next += rd.blocks
			first := len(ow.reads) == 0
			switch {
			case ties && first:
				rd.delay = time.Duration(rng.Intn(4)) * 50 * time.Microsecond
			case ties:
			case first && rng.Intn(2) == 0:
				ow.spawn = true
			default:
				rd.delay = time.Duration(1 + rng.Int63n(int64(600*time.Microsecond)))
			}
			ow.reads = append(ow.reads, rd)
		}
		switch {
		case rng.Intn(4) != 0:
		case ties:
			ow.cancelled = true
		default:
			ow.cancel = time.Duration(1 + rng.Int63n(int64(4*time.Millisecond)))
		}
	}
	return owners
}

// devBlock is a device-local block on one spindle: a request, in a script
// that reads no block twice.
type devBlock struct {
	dev   int
	block BlockID
}

// elevatorRun is what one play of a script did.
type elevatorRun struct {
	windows  map[devBlock]window  // every served request's window
	arrivals map[devBlock]rt.Time // every request's submission
	ends     [][]rt.Time          // per owner and read: when the read returned
	stats    ArrayStats
	events   map[rt.Time]int  // arrivals and cancels per instant, but for the spawned owners' first reads
	freed    map[rt.Time]bool // window ends
}

// playElevator plays a script on a fresh elevator array through read. It
// checks, at every pick that serves a request, that the request is
// pickNext's choice among the requests pending then, and that its window
// starts neither before its device frees nor before it arrived.
func playElevator(t *testing.T, trial int, owners []elevatorOwner, cfg ArrayConfig, read func(a *DeviceArray) func(q *rt.QueryCtx, spans []Span)) elevatorRun {
	eng := sim.NewEngine()
	a := NewArray(rt.Sim(eng), cfg)
	run := elevatorRun{windows: map[devBlock]window{}, arrivals: map[devBlock]rt.Time{}, events: map[rt.Time]int{}, freed: map[rt.Time]bool{}}
	for dev, d := range a.devices {
		dev, d := dev, d
		var busy rt.Duration
		var free rt.Time
		head, haveHead := BlockID(0), false
		d.OnRead = func(b BlockID, bytes int64) {
			dur := d.stats.BusyTime - busy
			busy = d.stats.BusyTime
			w := window{d.busyUntil - rt.Time(dur), d.busyUntil}
			key := devBlock{dev, b}
			if w.start < free || w.start < run.arrivals[key] {
				t.Fatalf("trial %d: device %d serves block %d in %v, before it frees at %v or the request arrives at %v", trial, dev, b, w, free, run.arrivals[key])
			}
			ref := &Disk{sched: SchedElevator, pending: append(slices.Clone(d.pending), &ioReq{block: b}), lastBlock: head, haveLast: haveHead}
			if best := ref.pending[ref.pickNext()].block; best != b {
				t.Fatalf("trial %d: device %d picks block %d with head %d, pickNext picks %d", trial, dev, b, head, best)
			}
			run.windows[key] = w
			run.freed[w.end] = true
			free, head, haveHead = w.end, b+BlockID(bytes/1000)-1, true
		}
	}
	r := read(a)
	run.ends = make([][]rt.Time, len(owners))
	for o, ow := range owners {
		o, ow := o, ow
		q := rt.NewQueryCtx(a.r)
		if ow.cancelled {
			q.Cancel(rt.CauseClientCancel)
		}
		run.ends[o] = make([]rt.Time, len(ow.reads))
		eng.Go("owner", func() {
			for i, rd := range ow.reads {
				// The spawned owners' first reads reach the first pick
				// together under either elevator; any other read is an
				// event of its instant.
				if i > 0 || !ow.spawn {
					eng.Sleep(rd.delay)
					run.events[eng.Now()]++
				}
				spans := runSpans(a, BlockID(rd.block), rd.blocks, 1000)
				for _, s := range spans {
					run.arrivals[devBlock{a.DeviceFor(s.Block), a.localBlock(s.Block)}] = eng.Now()
				}
				r(q, spans)
				run.ends[o][i] = eng.Now()
			}
		})
		if ow.cancel > 0 {
			eng.Go("canceller", func() {
				eng.Sleep(ow.cancel)
				run.events[eng.Now()]++
				q.Cancel(rt.CauseClientCancel)
			})
		}
	}
	eng.Run()
	run.stats = a.Stats()
	return run
}

// coincides reports whether an arrival or a cancel falls on the instant
// of another or of a window's end.
func (r elevatorRun) coincides() bool {
	for at, n := range r.events {
		if n > 1 || r.freed[at] {
			return true
		}
	}
	return false
}

// TestDifferentialElevator holds the elevator, whose waiting requesters
// pick for themselves when their device frees, to refElevator, whose
// dispatcher process picked, over random scripts on one and two spindles
// with some owners cancelled. Every pick that serves a request, in either,
// is pickNext's choice among the requests pending then, and no window
// starts before its device frees or its request arrives. Where no two
// arrivals, window ends or cancels fall on one instant, every window,
// every read's end and every counter is the reference's, queue depths
// included. Where they do, the order of two processes at one instant
// decides which requests a pick sees, and it differs between the two, so
// only the requests served, the bytes and the requests skipped must
// match: the script cancels owners before they read, so a skip does not
// depend on when the request was picked.
func TestDifferentialElevator(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	var same, tied int
	for trial := 0; trial < 600; trial++ {
		cfg := ArrayConfig{
			Config:      Config{Bandwidth: 20e6, SeekLatency: 100 * time.Microsecond, Scheduler: SchedElevator},
			Devices:     1 + trial%2,
			StripeChunk: 4,
		}
		owners := randomElevatorScript(rng, trial%3 == 2)
		got := playElevator(t, trial, owners, cfg, func(a *DeviceArray) func(*rt.QueryCtx, []Span) { return a.ReadSpansOwner })
		want := playElevator(t, trial, owners, cfg, func(a *DeviceArray) func(*rt.QueryCtx, []Span) { return newRefElevator(a).read })
		if got.coincides() || want.coincides() {
			tied++
			g, w := got.stats.Stats, want.stats.Stats
			if g.Requests != w.Requests || g.BytesRead != w.BytesRead || g.Skipped != w.Skipped {
				t.Fatalf("trial %d: stats %+v, reference %+v", trial, g, w)
			}
			continue
		}
		same++
		if !maps.Equal(got.windows, want.windows) || !reflect.DeepEqual(got.ends, want.ends) || !reflect.DeepEqual(got.stats, want.stats) {
			t.Fatalf("trial %d: differs from the reference\ngot  %v %v %+v\nwant %v %v %+v", trial, got.windows, got.ends, got.stats, want.windows, want.ends, want.stats)
		}
	}
	if same < 200 || tied < 150 {
		t.Fatalf("%d scripts with distinct instants and %d with shared ones; want both classes well covered", same, tied)
	}
}
