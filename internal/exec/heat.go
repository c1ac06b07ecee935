package exec

import (
	"sync"

	"repro/internal/iosim"
	"repro/internal/storage"
)

// ChunkHeat is a run's access temperature per stripe chunk of the block
// space: how many (scan, column) declarations covered each block of the
// chunk. Scan and CScan count the zone-map-pruned stable ranges they
// hand their buffer manager at Open, so every policy feeds it the same
// way; iosim.TemperaturePlacement places chunks by it. Safe for
// concurrent use; a nil *ChunkHeat counts nothing.
type ChunkHeat struct {
	chunk int64 // stripe chunk in blocks

	mu   sync.Mutex
	heat []float64 // index = stripe chunk, sized to the highest one counted
}

// NewChunkHeat returns an empty counter over stripe chunks of
// stripeChunk blocks (<= 0 means iosim.DefaultStripeChunk, as for the
// array).
func NewChunkHeat(stripeChunk int) *ChunkHeat {
	if stripeChunk <= 0 {
		stripeChunk = iosim.DefaultStripeChunk
	}
	return &ChunkHeat{chunk: int64(stripeChunk)}
}

// count adds one to the heat of every page of cols over the stable SID
// range [lo, hi) of snap.
func (h *ChunkHeat) count(snap *storage.Snapshot, cols []int, lo, hi int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, col := range cols {
		for _, pg := range snap.PagesInRange(col, lo, hi) {
			c := int64(pg.Block) / h.chunk
			for int64(len(h.heat)) <= c {
				h.heat = append(h.heat, 0)
			}
			h.heat[c]++
		}
	}
}

// Chunks returns a copy of the per-chunk heat (nil before anything was
// counted).
func (h *ChunkHeat) Chunks() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.heat...)
}
