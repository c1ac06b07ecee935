// Package iosim simulates a disk subsystem in virtual time.
//
// The model is deliberately simple but captures the properties the paper's
// experiments depend on: a fixed sequential bandwidth, a per-request seek
// penalty when the access is not contiguous with the previous one, and
// FIFO queueing of concurrent requests (requests from many scans serialize
// on the device, so concurrent scans competing for the disk slow each
// other down and destroy sequential locality — the core problem statement
// of §1).
//
// One request path runs through the subsystem: a DeviceArray (array.go)
// stripes blocks over N spindles RAID-0 style — the multi-device testbed
// shape of the paper's SSD RAID — and every spindle is a Disk, one
// device queue with the model above. The array decides how a batch of
// pages becomes device requests: callers add their pages one at a time
// with AppendSpan, which cuts the batch at stripe-chunk starts so every
// span lies on one spindle at its exact bytes, and read the batch through
// ReadSpansOwner, the one read entry point (Read is one ownerless span).
// Each span is submitted to its spindle's queue, given a transfer window,
// slept out by the requester, and departs; the queue discipline (FIFO or
// elevator) decides only who is served next and when a seek is charged.
// No process of the subsystem's own runs: FIFO assigns the window at
// submission, and under the elevator the requesters that wait for a
// window make the pick themselves when the device frees.
//
// The devices are runtime-agnostic: on the sim runtime a read suspends the
// calling process in virtual time; on the real runtime the same bandwidth
// model is timed on the wall clock, so a read really blocks the calling
// goroutine for the modeled device time and concurrent readers really
// queue. The page payloads live in memory either way — the "disk" prices
// access, it does not store bytes.
package iosim

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/rt"
)

// BlockID identifies a physical disk block (a page's home location). IDs
// are allocated densely; two blocks are "sequential" when their IDs are
// consecutive. On a DeviceArray the ID is a logical address that striping
// maps to a (device, device-local block) pair.
type BlockID int64

// Stats aggregates device activity.
type Stats struct {
	BytesRead   int64 // total bytes transferred
	Requests    int64 // number of read requests
	Seeks       int64 // requests that were not sequential with the previous one
	BusyTime    rt.Duration
	MaxQueueLen int   // high-water mark of queued requests
	Skipped     int64 // queued requests dropped unserviced: owner cancelled before service
}

// Disk is one simulated spindle: a block device with fixed sequential
// bandwidth, a seek penalty, and one request queue under a FIFO or an
// elevator discipline. Its timeline is a list of reservations: a request
// is served no earlier than it arrives, which for a paced owner is on the
// owner's modelled clock, and the device keeps the idle stretches this
// leaves for requests that arrive earlier but were submitted later (see
// assign).
type Disk struct {
	r rt.Runtime

	bandwidth   float64 // bytes per second of sequential transfer
	seekLatency rt.Duration

	// Admission is a ticket lock: a request's arrival is linearized by an
	// atomic fetch-add on tickets — deliberately OUTSIDE mu, because a
	// ticket handed out under the mutex would just inherit sync.Mutex's
	// barging order — and requests are serviced strictly in ticket order
	// (a FIFO submit waits on admit until serving reaches its ticket; the
	// elevator uses the ticket as its fairness tie-break). That makes
	// the device queue genuinely FIFO by arrival on the real runtime,
	// where mutex barging would otherwise let a late-arriving goroutine
	// overtake goroutines that registered long before it and reorder the
	// queue arbitrarily (and with it the Seeks and MaxQueueLen
	// accounting). In sim mode exactly one process runs at a time and
	// bookkeeping never blocks, so a request's ticket is always the one
	// being served and admit never waits.
	tickets atomic.Int64 // next ticket to hand out (arrival order)

	// mu guards the device position, queue and counters.
	mu        sync.Mutex
	admit     *sync.Cond // signalled when serving advances
	serving   int64      // ticket currently admitted to bookkeeping
	busyUntil rt.Time    // end of the latest reservation
	lastBlock BlockID    // head after the latest reservation
	haveLast  bool
	queued    int
	// Stretches of the timeline before busyUntil that no reservation
	// covers, in time order (see assign). Only a request that arrives
	// ahead of the clock leaves one, so on the simulator and for unpaced
	// owners the list stays empty.
	idle []idleStretch

	stats Stats

	// Requests the queue has not yet given a transfer window. FIFO never
	// leaves one here: arrival order is service order, so submit assigns
	// the window itself. Arrival-time bookkeeping cannot reorder anything
	// — in sim mode submit never blocks — so the elevator defers the
	// decision to service-start time: requests wait on pending, and the
	// requesters waiting for a window pick the C-SCAN-best of them when
	// the device frees (serve, called from DeviceArray.pick).
	sched   string
	pending []*ioReq

	// OnRead, if non-nil, observes every serviced read in service order.
	// It is called with the device mutex held, so observers need no
	// synchronization of their own against concurrent reads.
	OnRead func(b BlockID, bytes int64)
}

// ioReq is one request in a device queue. The requester fills in the
// owner and the block run; submit stamps the rest.
type ioReq struct {
	q      *rt.QueryCtx
	block  BlockID
	blocks int
	bytes  int64
	ticket int64
	arrive rt.Time // arrival on the owner's modelled clock (see rt.QueryCtx.Lead)
	done   bool    // transfer window assigned
	until  rt.Time // completion time, valid once done
}

// idleStretch is a stretch of the device timeline that a reservation
// skipped because its request arrived later than the device was free:
// the device is idle from..to, its head after block last (if haveLast).
// The reservation after the stretch starts at block next and was charged
// a seek if nextSeeks, judged against that head.
type idleStretch struct {
	from, to  rt.Time
	last      BlockID
	haveLast  bool
	next      BlockID
	nextSeeks bool
}

// Config parameterizes a simulated disk.
type Config struct {
	// Bandwidth is the sequential transfer rate in bytes per second (per
	// device on an array).
	Bandwidth float64
	// SeekLatency is added to any request that does not continue the
	// previous request's block run.
	SeekLatency rt.Duration
	// Scheduler selects the queue discipline: SchedFIFO (or "") services
	// requests in strict arrival order and is bit-identical to the
	// historical device; SchedElevator runs a C-SCAN sweep over the
	// pending blocks, charging the seek penalty only on direction
	// -breaking jumps. See the Disk comment for who makes the pick.
	Scheduler string
}

// Queue disciplines accepted by Config.Scheduler.
const (
	// SchedFIFO services requests strictly in arrival (ticket) order —
	// the historical model and the golden-pinned default.
	SchedFIFO = "fifo"
	// SchedElevator services the pending queue as a C-SCAN sweep: among
	// the requests waiting when the device frees, pick the lowest block
	// at or ahead of the head; when nothing is ahead, wrap to the lowest
	// pending block. Only the wrap (and the initial positioning) pays the
	// seek penalty — forward jumps within a sweep ride the arm's travel.
	// Ties at the same block are broken by arrival ticket, preserving the
	// ticketed-admission fairness of the FIFO path.
	SchedElevator = "elevator"
)

// newDisk creates one spindle of an array attached to the runtime.
func newDisk(r rt.Runtime, cfg Config) *Disk {
	if cfg.Bandwidth <= 0 {
		panic("iosim: bandwidth must be positive")
	}
	if cfg.SeekLatency < 0 {
		panic("iosim: negative seek latency")
	}
	sched := cfg.Scheduler
	switch sched {
	case "", SchedFIFO:
		sched = ""
	case SchedElevator:
	default:
		panic(fmt.Sprintf("iosim: unknown scheduler %q (want %q or %q)", cfg.Scheduler, SchedFIFO, SchedElevator))
	}
	d := &Disk{r: r, bandwidth: cfg.Bandwidth, seekLatency: cfg.SeekLatency, sched: sched}
	d.admit = sync.NewCond(&d.mu)
	return d
}

// elevator reports whether the device runs the C-SCAN discipline.
func (d *Disk) elevator() bool { return d.sched == SchedElevator }

// submit puts one request in the device queue WITHOUT blocking for the
// transfer itself. DeviceArray uses the submit/depart split to queue the
// spans of one batch on several devices — so each spindle's queue sees
// its full share and no spindle is idled by a busy one — and then sleep
// once until the last of them completes.
//
// The request counts as queued from arrival until depart under either
// discipline, and always takes an arrival ticket: it is FIFO's service
// order and the elevator's fairness tie-break for same-block requests.
// FIFO assigns the transfer window here, in ticket order; the elevator
// leaves the request pending for a pick (serve).
func (d *Disk) submit(req *ioReq) {
	if req.bytes <= 0 || req.blocks <= 0 {
		panic(fmt.Sprintf("iosim: bad read: %d blocks, %d bytes", req.blocks, req.bytes))
	}
	// Arrival: the atomic increment is the linearization point that fixes
	// this request's queue position, before any mutex is contended.
	req.ticket = d.tickets.Add(1) - 1
	d.mu.Lock()
	defer d.mu.Unlock()
	d.queued++
	if d.queued > d.stats.MaxQueueLen {
		d.stats.MaxQueueLen = d.queued
	}
	fifo := !d.elevator()
	// Real runtime: a FIFO request waits for its turn; every admission
	// broadcasts, and exactly one waiter's ticket matches the new serving
	// value. Sim runtime: never waits (see the tickets field comment).
	for fifo && req.ticket != d.serving {
		d.admit.Wait()
	}
	// A paced owner's request arrives on its own modelled clock, Lead
	// ahead of the wall clock (zero lead otherwise).
	now := d.r.Now()
	req.arrive = now + rt.Time(req.q.Lead())
	if fifo {
		d.assign(req, now)
		d.serving++
		d.admit.Broadcast()
		return
	}
	d.pending = append(d.pending, req)
}

// assign gives req its transfer window, starting when the device, the
// clock and the owner's modelled clock have all reached it, and does the
// accounting: the one service routine of both disciplines. Caller holds
// d.mu and has chosen req as the next request to serve.
//
// Service order is ticket order, but a paced owner's request arrives on
// its own modelled clock, ahead of the wall clock (rt.QueryCtx.Lead), so
// a request can arrive later than one submitted after it. The device does
// not sit idle for it: a reservation that starts after the device frees
// leaves that idle stretch on the timeline, and a later request whose
// arrival and transfer fit in a remembered stretch is served there, its
// seek judged against the head at the stretch's start, instead of after
// busyUntil. Two more conditions keep every seek the spindle makes
// charged and add none the tail would not: the reservation after the
// stretch, which the request now precedes on the spindle, must keep its
// seek charge (a request that would turn that reservation's continuation
// into a seek is not served there, since that seek was never charged),
// and the request may not seek there if it would not after busyUntil.
// busyUntil stays the latest end and lastBlock the head after the latest
// reservation. When every request arrives at the clock — the
// simulator, unpaced owners — no stretch ever lies ahead of it, and the
// elevator assigns only once the device is free, so neither discipline's
// timeline moves there.
//
// The owner tag is inspected exactly once, here at the request's service
// turn: a request whose owner is already cancelled is retired
// immediately with only the Skipped counter touched. The queue
// accounting (queued, MaxQueueLen, the ticket) is unchanged either way —
// a skipped request occupied its queue slot until its turn came, which
// is what the depth counters measure.
func (d *Disk) assign(req *ioReq, now rt.Time) {
	req.done = true
	if req.q.Cancelled() {
		d.stats.Skipped++
		req.until = now
		return
	}
	xfer := rt.Duration(float64(req.bytes) / d.bandwidth * 1e9)
	arrive := max(now, req.arrive)
	d.idle = slices.DeleteFunc(d.idle, func(s idleStretch) bool { return s.to <= max(now, s.from) })
	end := req.block + BlockID(req.blocks) - 1
	tailDur, tailSeek := d.cost(req, xfer, d.lastBlock, d.haveLast)
	for i, s := range d.idle {
		dur, seek := d.cost(req, xfer, s.last, s.haveLast)
		start := max(arrive, s.from)
		if start+rt.Time(dur) > s.to || seek && !tailSeek || !s.nextSeeks && d.seeks(s.next, end, true) {
			continue
		}
		req.until = start + rt.Time(dur)
		before, after := s, s
		before.to, before.next, before.nextSeeks = start, req.block, seek
		after.from, after.last, after.haveLast = req.until, end, true
		d.idle = slices.Replace(d.idle, i, i+1, before, after) // empty pieces go at the next prune
		d.account(req, dur, seek)
		return
	}
	dur, seek := tailDur, tailSeek
	free := max(now, d.busyUntil)
	start := max(arrive, free)
	if start > free {
		d.idle = append(d.idle, idleStretch{from: free, to: start, last: d.lastBlock, haveLast: d.haveLast, next: req.block, nextSeeks: seek})
	}
	req.until = start + rt.Time(dur)
	d.busyUntil = req.until
	d.lastBlock = end
	d.haveLast = true
	d.account(req, dur, seek)
}

// cost returns how long req keeps the device after a transfer of xfer
// with the head after block last (position unknown unless haveLast), and
// whether that includes a seek.
func (d *Disk) cost(req *ioReq, xfer rt.Duration, last BlockID, haveLast bool) (rt.Duration, bool) {
	if d.seeks(req.block, last, haveLast) {
		return xfer + d.seekLatency, true
	}
	return xfer, false
}

// seeks reports whether a request starting at block pays a seek with the
// head after block last (position unknown unless haveLast). The seek rule
// is the discipline's. FIFO pays for any request that does not continue
// the previous block run. C-SCAN pays only for the initial positioning and
// a direction-breaking wrap (the picked block is behind the head); forward
// jumps ride the sweep.
func (d *Disk) seeks(block, last BlockID, haveLast bool) bool {
	if !haveLast {
		return true
	}
	if d.elevator() {
		return block < last+1
	}
	return block != last+1
}

// account books a served request whose reservation lasts dur.
func (d *Disk) account(req *ioReq, dur rt.Duration, seek bool) {
	if seek {
		d.stats.Seeks++
	}
	d.stats.Requests++
	d.stats.BytesRead += req.bytes
	d.stats.BusyTime += dur
	if d.OnRead != nil {
		d.OnRead(req.block, req.bytes)
	}
}

// depart retires one completed request from the queue accounting.
func (d *Disk) depart() {
	d.mu.Lock()
	d.queued--
	d.mu.Unlock()
}

// serve is the elevator's pick: while the device is free at now and
// requests are pending, it gives the C-SCAN-best of them its window,
// whoever it belongs to, so a request that arrives ahead of the head
// joins the current sweep. Requesters waiting for a window call it when
// they wake at the instant the device frees (DeviceArray.pick).
// Caller holds d.mu.
func (d *Disk) serve(now rt.Time) {
	for len(d.pending) > 0 && d.busyUntil <= now {
		i := d.pickNext()
		req := d.pending[i]
		d.pending = append(d.pending[:i], d.pending[i+1:]...)
		d.assign(req, now)
	}
}

// pickNext returns the index of the C-SCAN-best pending request: lowest
// block at or ahead of the head, else (wrap) the lowest pending block;
// equal blocks order by arrival ticket.
// Caller holds d.mu; pending is non-empty.
func (d *Disk) pickNext() int {
	head := BlockID(0)
	if d.haveLast {
		head = d.lastBlock + 1
	}
	best := 0
	for i := 1; i < len(d.pending); i++ {
		r, b := d.pending[i], d.pending[best]
		rAhead, bAhead := r.block >= head, b.block >= head
		var better bool
		switch {
		case rAhead != bAhead:
			better = rAhead
		case r.block != b.block:
			better = r.block < b.block
		default:
			better = r.ticket < b.ticket
		}
		if better {
			best = i
		}
	}
	return best
}

// Stats returns a snapshot of the device counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the counters (the device position memory is kept).
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}
