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
	// Devices is the number of independent spindles (<= 0 means 1; a
	// 1-device array is bit-identical to a bare Disk).
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

// Span is one block-contiguous read request: a run of consecutive logical
// blocks and its exact byte volume.
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
// share its queue exactly as on a single Disk. Every read is a batch of
// spans through ReadSpansOwner, whatever the device count or the queue
// discipline.
type DeviceArray struct {
	r       rt.Runtime
	devices []*Disk
	chunk   int64

	// Placement state (nil placement = pure round-robin striping).
	placement []int
	localSlot []int64 // per placed chunk: its slot on its owning device
	placedOn  []int64 // per device: number of placed chunks it owns
}

// New creates a single-device array — the historical one-disk model, used
// by every figure experiment and bit-identical to the pre-array code.
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
		a.devices[i] = NewDisk(r, dc)
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

// StripeBoundary reports whether logical block b begins a new stripe
// chunk — the points where callers batching contiguous reads (the buffer
// pool's read-ahead) must split a run so each piece carries its exact
// byte volume to its owning device. Always false on a single-device
// array, whose runs are never split.
func (a *DeviceArray) StripeBoundary(b BlockID) bool {
	return len(a.devices) > 1 && int64(b)%a.chunk == 0
}

// Read transfers a run of logical blocks, blocking the caller for the
// modeled time. On a multi-device array the run is split at stripe-chunk
// boundaries and the pieces proceed concurrently on their owning devices;
// the call returns when the last piece completes.
func (a *DeviceArray) Read(b BlockID, blocks int, bytes int64) {
	a.ReadOwner(nil, b, blocks, bytes)
}

// ReadOwner is Read with a lifecycle owner tag (see Disk.ReadOwner): a
// cancelled owner's queued sub-reads are skipped at their service turn on
// every spindle instead of transferring bytes nobody will consume.
func (a *DeviceArray) ReadOwner(q *rt.QueryCtx, b BlockID, blocks int, bytes int64) {
	a.ReadSpansOwner(q, []Span{{Block: b, Blocks: blocks, Bytes: bytes}})
}

// ReadSpans issues a batch of block runs as one request: every span is
// split at stripe-chunk boundaries into per-device sub-reads (a
// single-device array passes spans through unsplit), the sub-reads are
// submitted to their owning devices' queues in span order, and the caller
// blocks until the last one completes. Sub-reads on different spindles
// overlap — this is where striping buys I/O parallelism — while sub-reads
// on the same spindle queue behind each other as usual, or, under the
// elevator, are sweep-ordered against competing scans' requests.
//
// Queue accounting is batch-granular on every array: each sub-read
// counts as queued on its device from submission until the WHOLE batch
// completes (one caller, one wake-up), so a spindle that finishes its
// share early — or the one spindle serving a batch's spans back to back
// — still shows the request outstanding until the last transfer is done.
// Per-device MaxQueueLen therefore reports batch-level queue pressure,
// slightly above the pure per-transfer depth.
func (a *DeviceArray) ReadSpans(spans []Span) {
	a.ReadSpansOwner(nil, spans)
}

// ReadSpansOwner is ReadSpans with a lifecycle owner tag: each sub-read
// checks the owner at its own service turn, so a batch whose owner is
// cancelled while queued is skipped device by device (sub-reads already
// in service on other spindles complete normally).
//
// Every piece is submitted before any is awaited, so each spindle's
// queue sees its full share of the batch and other spindles are never
// idled by a busy one. A transfer window never waits on a departure, so
// two pieces of one batch on the same device cannot deadlock: the second
// is assigned the window that starts where the first's ends.
func (a *DeviceArray) ReadSpansOwner(q *rt.QueryCtx, spans []Span) {
	subs := make([]subRead, 0, len(spans))
	for _, s := range spans {
		if s.Blocks <= 0 || s.Bytes <= 0 {
			panic("iosim: bad span")
		}
		subs = a.split(subs, q, s)
	}
	// subs no longer grows: the queues may hold pointers into it.
	for i := range subs {
		a.devices[subs[i].dev].submit(&subs[i].req)
	}
	var until rt.Time
	for i := range subs {
		until = max(until, a.devices[subs[i].dev].await(&subs[i].req))
	}
	q.SleepUntil(a.r, until)
	for i := range subs {
		a.devices[subs[i].dev].depart()
	}
}

// subRead is one per-device piece of a spans batch.
type subRead struct {
	dev int
	req ioReq
}

// split appends span s to subs as per-device sub-reads cut at
// stripe-chunk boundaries. A single-device array has no boundaries: the
// span stays one request, whatever its length.
func (a *DeviceArray) split(subs []subRead, q *rt.QueryCtx, s Span) []subRead {
	b, remBlocks, remBytes := s.Block, s.Blocks, s.Bytes
	for remBlocks > 0 {
		n := remBlocks
		if len(a.devices) > 1 && remBytes >= int64(remBlocks) {
			n = min(n, int(a.chunk-int64(b)%a.chunk))
		}
		// A degenerate span with fewer bytes than blocks is not cut (n
		// stays remBlocks): pro-rata pricing cannot reserve a positive
		// byte count per chunk segment, so the whole remainder is priced
		// on the first block's owning device.
		//
		// Callers that split at stripe boundaries themselves pass
		// one-chunk spans with exact bytes; a span that does cross
		// boundaries (the ABM's chunk stretches) is priced pro-rata by
		// block count, conserving the total. With remBytes >= remBlocks
		// the quotient is always in [1, remBytes-(remBlocks-n)], so every
		// sub-read keeps a positive byte count and so does every later
		// one.
		by := remBytes
		if n < remBlocks {
			by = remBytes * int64(n) / int64(remBlocks)
		}
		subs = append(subs, subRead{dev: a.DeviceFor(b), req: ioReq{q: q, block: a.localBlock(b), blocks: n, bytes: by}})
		b += BlockID(n)
		remBlocks -= n
		remBytes -= by
	}
	return subs
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
