// Package trace records page-reference traces from a live run so they can
// be replayed offline (the paper replays the PBM run's trace under OPT).
package trace

import (
	"sync"

	"repro/internal/buffer"
	"repro/internal/opt"
	"repro/internal/storage"
)

// Recorder accumulates page references in request order. The pool calls
// OnAccess under its own mutex, so writes arrive one at a time (on the
// real-threaded runtime request order means the order that mutex was
// taken in; replay determinism is a sim-mode property); the recorder's
// mutex is for Record from the ABM path and for readers — Refs, Len and
// Reset run beside a live real-mode pool.
type Recorder struct {
	mu   sync.Mutex
	refs []opt.Ref
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Attach hooks the recorder into a pool's OnAccess callback, chaining any
// existing hook.
func (r *Recorder) Attach(pool *buffer.Pool) {
	prev := pool.OnAccess
	pool.OnAccess = func(p *storage.Page) {
		r.Record(p)
		if prev != nil {
			prev(p)
		}
	}
}

// Record appends one reference directly (used by the chunk-granularity
// ABM path, which bypasses the page pool).
func (r *Recorder) Record(p *storage.Page) {
	r.mu.Lock()
	r.refs = append(r.refs, opt.Ref{Page: p.ID, Bytes: p.Bytes})
	r.mu.Unlock()
}

// Refs returns the recorded trace.
func (r *Recorder) Refs() []opt.Ref {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.refs
}

// Len returns the number of recorded references.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.refs)
}

// Reset clears the trace.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refs = r.refs[:0]
}
