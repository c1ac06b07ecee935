package main

import (
	"net/http"
	"strconv"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from this
// program's side of the call. Spans of one request share Request; Parent
// is the id of the span that caused this one (0 for a root). A span's self
// time is its duration minus what its children cover.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the run writes them out at exit.
type tracer struct {
	t0 time.Time
	mu sync.Mutex
	s  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.s) + 1
	request := id // a root span starts a request of its own
	if parent > 0 && parent <= len(t.s) {
		request = t.s[parent-1].Request
	}
	t.s = append(t.s, span{ID: id, Parent: parent, Request: request, Name: name, StartNS: now})
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.s[id-1].EndNS = now
	t.mu.Unlock()
}

func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.s...)
}

// spanHeader carries the client span's id to the server side of the
// socket, so server.handle can name its parent.
const spanHeader = "X-Bench-Span"

// middleware wraps the server's handler with the server.handle span. It
// is installed only in traced runs.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		id := t.begin("server.handle", parent)
		next.ServeHTTP(w, r)
		t.end(id)
	})
}
