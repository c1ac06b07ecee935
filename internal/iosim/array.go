package iosim

import (
	"fmt"
	"sort"

	"repro/internal/rt"
)

// DefaultStripeChunk is the striping granularity in blocks (pages) when a
// multi-device array is configured without an explicit chunk: 16 blocks of
// 16 KiB pages is a 256 KiB stripe chunk, a typical RAID-0 setting — large
// enough that short reads stay on one spindle, small enough that a scan's
// read-ahead batch spans several.
const DefaultStripeChunk = 16

// ArrayConfig parameterizes a striped device array.
type ArrayConfig struct {
	// Config is the per-device model: each spindle keeps the full
	// bandwidth and seek-penalty model, so aggregate sequential bandwidth
	// scales with Devices. Config.Scheduler applies array-wide — every
	// spindle runs the same queue discipline.
	Config
	// Devices is the number of independent spindles (<= 0 means 1).
	Devices int
	// StripeChunk is the striping granularity in blocks (<= 0 means
	// DefaultStripeChunk). Block b lives on device (b/StripeChunk) mod
	// Devices.
	StripeChunk int
	// FastDevices makes the first N spindles an SSD-like fast tier: zero
	// SeekLatency and FastBandwidthX times the base Bandwidth. Zero keeps
	// the array homogeneous.
	FastDevices int
	// ChunkPlacement optionally overrides the round-robin striping: entry
	// c is the device owning stripe chunk c (blocks [c*StripeChunk,
	// (c+1)*StripeChunk)). Chunks beyond the slice fall back to round
	// -robin. Temperature-based tiering builds this map from observed
	// access heat (see TemperaturePlacement) so hot chunks land on the
	// fast devices.
	ChunkPlacement []int
}

// FastBandwidthX is the fast tier's bandwidth multiple.
const FastBandwidthX = 4

// Span is one device request: a run of consecutive logical blocks inside
// one stripe chunk (any run on a 1-device array) and its exact byte
// volume. Callers build spans with AppendSpan.
type Span struct {
	Block  BlockID
	Blocks int
	Bytes  int64
}

// DeviceArray stripes the logical block space over N independent Disks,
// RAID-0 style: logical block b maps to device (b/chunk) mod N at
// device-local block (b/(chunk*N))*chunk + b mod chunk, so a sequential
// logical run is a sequential local run on every spindle it touches and
// costs at most one seek per device. Requests to different devices
// proceed concurrently in both runtimes; requests to the same device
// share its queue. Every read is a batch of spans through ReadSpansOwner,
// whatever the device count or the queue discipline.
type DeviceArray struct {
	r       rt.Runtime
	devices []*Disk
	chunk   int64

	// Placement state (nil placement = pure round-robin striping).
	placement []int
	localSlot []int64 // per placed chunk: its slot on its owning device
	placedOn  []int64 // per device: number of placed chunks it owns
}

// New creates a single-device array — the one-disk model every figure
// experiment runs on.
func New(r rt.Runtime, cfg Config) *DeviceArray {
	return NewArray(r, ArrayConfig{Config: cfg, Devices: 1})
}

// NewArray creates a striped array of devices; identical spindles unless
// the first FastDevices of them form a fast tier.
func NewArray(r rt.Runtime, cfg ArrayConfig) *DeviceArray {
	if cfg.Devices < 0 {
		panic(fmt.Sprintf("iosim: negative device count %d", cfg.Devices))
	}
	n := cfg.Devices
	if n <= 0 {
		n = 1
	}
	chunk := cfg.StripeChunk
	if chunk <= 0 {
		chunk = DefaultStripeChunk
	}
	a := &DeviceArray{r: r, devices: make([]*Disk, n), chunk: int64(chunk)}
	for i := range a.devices {
		dc := cfg.Config
		if i < cfg.FastDevices {
			dc.Bandwidth *= FastBandwidthX
			dc.SeekLatency = 0
		}
		a.devices[i] = newDisk(r, dc)
	}
	if len(cfg.ChunkPlacement) > 0 {
		a.placement = append([]int(nil), cfg.ChunkPlacement...)
		a.localSlot = make([]int64, len(a.placement))
		a.placedOn = make([]int64, n)
		for c, dev := range a.placement {
			if dev < 0 || dev >= n {
				panic(fmt.Sprintf("iosim: chunk %d placed on device %d of %d", c, dev, n))
			}
			// A chunk's device-local slot is the number of earlier chunks
			// on the same device, so each spindle's chunks stay dense and
			// chunk-index-ordered in its local block space.
			a.localSlot[c] = a.placedOn[dev]
			a.placedOn[dev]++
		}
	}
	return a
}

// Devices reports the number of spindles.
func (a *DeviceArray) Devices() int { return len(a.devices) }

// DeviceFor returns the index of the spindle that owns logical block b.
func (a *DeviceArray) DeviceFor(b BlockID) int {
	c := int64(b) / a.chunk
	if c < int64(len(a.placement)) {
		return a.placement[c]
	}
	return int(c % int64(len(a.devices)))
}

// localBlock maps a logical block to its device-local address, keeping
// each spindle's share of a striped run contiguous in local block space.
// Placed chunks occupy dense chunk-index-ordered slots on their owning
// device (see NewArray); round-robin chunks beyond the placement map
// continue after them.
func (a *DeviceArray) localBlock(b BlockID) BlockID {
	c := int64(b) / a.chunk
	off := int64(b) % a.chunk
	if len(a.placement) == 0 {
		row := c / int64(len(a.devices))
		return BlockID(row*a.chunk + off)
	}
	var slot int64
	if c < int64(len(a.placement)) {
		slot = a.localSlot[c]
	} else {
		n := int64(len(a.devices))
		dev := c % n
		slot = a.placedOn[dev] + countCongruent(int64(len(a.placement)), c, dev, n)
	}
	return BlockID(slot*a.chunk + off)
}

// countCongruent counts integers j in [lo, hi) with j mod n == r
// (0 <= r < n), used to slot round-robin chunks past the placement map.
func countCongruent(lo, hi, r, n int64) int64 {
	f := func(x int64) int64 {
		if x <= r {
			return 0
		}
		return (x - r + n - 1) / n
	}
	return f(hi) - f(lo)
}

// AppendSpan adds one block of the given bytes to a batch of spans: the
// one place that decides how a batch of pages becomes device requests.
// The block extends the last span when it continues it inside one stripe
// chunk (on a 1-device array, whenever it continues it), and starts a new
// span otherwise — so every span lies on one spindle at its exact bytes.
func (a *DeviceArray) AppendSpan(spans []Span, b BlockID, bytes int64) []Span {
	if n := len(spans); n > 0 {
		s := &spans[n-1]
		if s.Block+BlockID(s.Blocks) == b && (len(a.devices) == 1 || int64(b)%a.chunk != 0) {
			s.Blocks++
			s.Bytes += bytes
			return spans
		}
	}
	return append(spans, Span{Block: b, Blocks: 1, Bytes: bytes})
}

// Read transfers one span with no owner, blocking the caller for the
// modeled time (see ReadSpansOwner).
func (a *DeviceArray) Read(b BlockID, blocks int, bytes int64) {
	a.ReadSpansOwner(nil, []Span{{Block: b, Blocks: blocks, Bytes: bytes}})
}

// ReadSpansOwner issues a batch of spans (see AppendSpan) as one request
// and blocks the caller until the last completes: each span goes to the
// queue of the spindle owning it, in span order. Spans on different
// spindles overlap — this is where striping buys I/O parallelism — while
// spans on the same spindle queue behind each other as usual, or, under
// the elevator, are sweep-ordered against competing scans' requests. A
// span that crosses a stripe chunk on a multi-device array is refused.
//
// Every span is submitted before the caller waits for any window, so
// each spindle's queue sees its full share of the batch and other
// spindles are never idled by a busy one. A transfer window never waits
// on a departure, so two spans of one batch on the same device cannot
// deadlock: the second is assigned the window that starts where the
// first's ends.
//
// FIFO assigns every window at submission. Under the elevator the caller
// waits for its windows and makes the picks itself (pick): first a yield
// at the current instant, so requests submitted at the same instant join
// the first pick, then, while a span has no window, until the earliest
// instant one of its devices frees. The wait is the batch's, not a
// span's, so a striped batch's spindle is not left idle while its
// requester waits on another one. It goes through QueryCtx.WaitUntil: a
// wait outside pacing, which a paced thread is not charged as work.
//
// Queue accounting is batch-granular: each span counts as queued on its
// device from submission until the WHOLE batch completes (one caller, one
// wake-up), so per-device MaxQueueLen reports batch-level queue pressure,
// slightly above the pure per-transfer depth.
//
// The owner q (nil for none) is checked by each span at its own service
// turn: a span whose owner is cancelled by then is skipped — no seek, no
// busy time, no byte accounting — while spans already in service on
// other spindles complete normally. The owner is also who waits out the
// transfer (QueryCtx.SleepUntil): a paced scan thread is charged the wait
// instead of sleeping it on the spot, and the device timeline is computed
// as for any other requester.
func (a *DeviceArray) ReadSpansOwner(q *rt.QueryCtx, spans []Span) {
	subs := make([]subRead, len(spans))
	for i, s := range spans {
		if len(a.devices) > 1 && int64(s.Block)%a.chunk+int64(s.Blocks) > a.chunk {
			panic(fmt.Sprintf("iosim: span %+v crosses a stripe chunk of %d blocks", s, a.chunk))
		}
		subs[i] = subRead{dev: a.DeviceFor(s.Block), req: ioReq{q: q, block: a.localBlock(s.Block), blocks: s.Blocks, bytes: s.Bytes}}
	}
	// The queues may hold pointers into subs.
	for i := range subs {
		a.devices[subs[i].dev].submit(&subs[i].req)
	}
	wake, waiting := a.r.Now(), a.devices[0].elevator()
	for waiting {
		q.WaitUntil(a.r, wake)
		wake, waiting = a.pick(subs)
	}
	var until rt.Time
	for i := range subs {
		until = max(until, subs[i].req.until)
	}
	q.SleepUntil(a.r, until)
	for i := range subs {
		a.devices[subs[i].dev].depart()
	}
}

// pick serves, on every device where a span of the batch still has no
// window, the device's pending requests while it is free (Disk.serve).
// It returns the earliest instant one of the devices still holding such
// a span frees, and whether there is one.
func (a *DeviceArray) pick(subs []subRead) (wake rt.Time, waiting bool) {
	now := a.r.Now()
	for i := range subs {
		d, req := a.devices[subs[i].dev], &subs[i].req
		d.mu.Lock()
		if !req.done {
			d.serve(now)
		}
		if !req.done && (!waiting || d.busyUntil < wake) {
			wake, waiting = d.busyUntil, true
		}
		d.mu.Unlock()
	}
	return wake, waiting
}

// subRead is one span of a batch, bound to its device.
type subRead struct {
	dev int
	req ioReq
}

// ArrayStats aggregates the spindle counters of a DeviceArray.
type ArrayStats struct {
	// Stats sums BytesRead, Requests, Seeks and BusyTime over all devices;
	// MaxQueueLen is the maximum over devices (queue depths on different
	// spindles are concurrent, not additive).
	Stats
	// PerDevice holds each spindle's own counters, index = device.
	PerDevice []Stats
	// MaxDeviceBytes and MinDeviceBytes expose stripe skew: the bytes
	// transferred by the busiest and the least-busy device. A large gap
	// means the stripe chunk or the workload's block layout is keeping
	// some spindles idle.
	MaxDeviceBytes int64
	MinDeviceBytes int64
}

// Stats returns a snapshot of the aggregate and per-device counters.
func (a *DeviceArray) Stats() ArrayStats {
	out := ArrayStats{PerDevice: make([]Stats, len(a.devices))}
	for i, d := range a.devices {
		s := d.Stats()
		out.PerDevice[i] = s
		out.BytesRead += s.BytesRead
		out.Requests += s.Requests
		out.Seeks += s.Seeks
		out.Skipped += s.Skipped
		out.BusyTime += s.BusyTime
		if s.MaxQueueLen > out.MaxQueueLen {
			out.MaxQueueLen = s.MaxQueueLen
		}
		if i == 0 || s.BytesRead > out.MaxDeviceBytes {
			out.MaxDeviceBytes = s.BytesRead
		}
		if i == 0 || s.BytesRead < out.MinDeviceBytes {
			out.MinDeviceBytes = s.BytesRead
		}
	}
	return out
}

// ResetStats zeroes every spindle's counters (device positions are kept).
func (a *DeviceArray) ResetStats() {
	for _, d := range a.devices {
		d.ResetStats()
	}
}

// TemperaturePlacement builds a ChunkPlacement map from observed per-chunk
// access heat for an array whose first fast devices are its fast tier
// (ArrayConfig.FastDevices): the hottest fast/devices fraction of chunks
// is placed round-robin over the fast devices, the rest round-robin over
// the slow ones, so a tiered array serves the skewed head of the access
// distribution from its fast spindles. Ties in heat break toward the lower
// chunk index (deterministic); with no fast devices the map degenerates to
// round-robin over all devices.
func TemperaturePlacement(heat []float64, devices, fast int) []int {
	if devices <= 0 || len(heat) == 0 {
		return nil
	}
	fast = max(0, min(fast, devices))
	order := make([]int, len(heat))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return heat[order[i]] > heat[order[j]]
	})
	// An all-fast array places every chunk as hot, so the slow branch
	// never divides by zero.
	hot := len(heat) * fast / devices
	place := make([]int, len(heat))
	for rank, c := range order {
		if rank < hot {
			place[c] = rank % fast
		} else {
			place[c] = fast + (rank-hot)%(devices-fast)
		}
	}
	return place
}
