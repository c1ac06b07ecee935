// Package server fronts the serving engine with HTTP: the admission
// scheduler is the front door, every request's lifecycle handle is tied
// to its HTTP context (disconnect → client-cancel, request deadline →
// query deadline), and results stream back as NDJSON. The handler pulls
// the plan itself and writes each batch before pulling the next, so a
// slow client blocks the write and the scan stalls behind it, with no
// result set buffered in server memory.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/tpch"
	"repro/internal/workload"
	"repro/wire"
)

// Config parameterizes the HTTP front end.
type Config struct {
	// Serve configures the underlying engine (policy, MPL, admission
	// policy, devices, ...); its Real flag is forced on.
	Serve workload.ServeConfig
	// DrainTimeout bounds how long Drain waits for in-flight queries
	// (0 = wait until the caller's context expires).
	DrainTimeout time.Duration
}

// Server is the HTTP front end over one ServeEngine.
type Server struct {
	cfg Config
	eng *workload.ServeEngine
	mux *http.ServeMux

	connSeq  atomic.Int64 // connections accepted, for tenant assignment
	querySeq atomic.Int64
	draining atomic.Bool
	inflight atomic.Int64 // admitted queries still streaming

	// produced counts rows encoded from the plans, delivered rows written
	// to clients; they differ only by the batch a failed write dropped.
	produced  atomic.Int64
	delivered atomic.Int64
}

// New builds a server over the generated database.
func New(db *tpch.DB, cfg Config) *Server {
	// A server serves wall-clock traffic, whatever the config says.
	cfg.Serve.Real = true
	s := &Server{cfg: cfg, eng: workload.NewServeEngine(db, cfg.Serve)}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc(wire.PathQuery, s.handleQuery)
	s.mux.HandleFunc(wire.PathUpdate, s.handleUpdate)
	s.mux.HandleFunc(wire.PathStatz, s.handleStatz)
	s.mux.HandleFunc(wire.PathHealth, s.handleHealth)
	return s
}

// Handler returns the HTTP handler (PathQuery, PathStatz, PathHealth).
func (s *Server) Handler() http.Handler { return s.mux }

// Engine exposes the underlying serving engine (stats, scheduler).
func (s *Server) Engine() *workload.ServeEngine { return s.eng }

// Produced and Delivered report the cumulative row counts encoded from
// the plans and written to clients.
func (s *Server) Produced() int64  { return s.produced.Load() }
func (s *Server) Delivered() int64 { return s.delivered.Load() }

type connIDKey struct{}

// ConnContext assigns each accepted connection an id; install it as
// http.Server.ConnContext. Connections map round-robin onto the
// engine's tenants, so a fleet of naive clients lands on all fairness
// domains without carrying tenant ids themselves.
func (s *Server) ConnContext(ctx context.Context, c net.Conn) context.Context {
	return context.WithValue(ctx, connIDKey{}, int(s.connSeq.Add(1)-1))
}

// Drain stops admitting queries (new ones resolve "draining") and waits
// until nothing is mid-stream and every layer's books balance at idle
// (ServeEngine.Check(true), which fails while a query runs or queues, or
// while the ABM finishes a chunk load for a scan whose query was
// cancelled). It returns nil on a clean drain, otherwise the
// context/timeout error joined with the last check's.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.eng.Scheduler().Drain()
	if s.cfg.DrainTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
	}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	var err error
	for {
		if err = s.eng.Check(true); err == nil && s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return errors.Join(ctx.Err(), err)
		case <-tick.C:
		}
	}
}

// Close releases the engine. Call after Drain.
func (s *Server) Close() { s.eng.Close() }

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	st := s.Statz()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

// Statz snapshots the server: the live serve-table row in the wire
// schema plus scheduler gauges. The ledger fields — the row's outcome
// counts, Running, Queued and Arrived — are read in one critical
// section, so they add up in every snapshot.
func (s *Server) Statz() wire.Statz {
	res := s.eng.Stats()
	row := workload.ServeRowOf(res, s.eng.Config())
	row.Rate = 0 // arrivals are client-driven, there is no configured rate
	dom := s.eng.Domain()
	return wire.Statz{
		Version:       wire.Version,
		UptimeSec:     res.ElapsedSec,
		Draining:      s.draining.Load(),
		Running:       res.Sched.Running,
		Queued:        res.Sched.Queued,
		Arrived:       res.Sched.Arrived,
		DrainRejected: res.Sched.DrainRejected,
		NumTuples:     dom.Rows,
		Domain:        wire.Predicate{Col: "l_shipdate", Lo: dom.DateMin, Hi: dom.DateMax},
		Tenants:       s.eng.TenantCount(),
		Stats:         row,
	}
}

func writeError(w http.ResponseWriter, code int, rep wire.ErrorReply) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(rep)
}

// maxBodyBytes bounds a POST body. A valid request is a few hundred
// bytes; without a bound one client could make a long-lived server
// buffer an arbitrarily large JSON value.
const maxBodyBytes = 64 << 10

// decodePost reads a POST body of at most maxBodyBytes into req,
// answering 405, 413 or 400 itself when it cannot.
func decodePost(w http.ResponseWriter, r *http.Request, req any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(req); err != nil {
		code := http.StatusBadRequest
		if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, wire.ErrorReply{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// admitted is one request past the front door: its scheduler ticket, the
// lifecycle handle bound to its HTTP context, and its fairness domain.
type admitted struct {
	tk     *sched.Ticket
	qc     *exec.QueryCtx
	tenant int
	// release unbinds the lifecycle handle from the HTTP context and
	// leaves the in-flight count; defer it.
	release func()
}

// timing reports the request's end-to-end latency so far and its queue
// wait, in milliseconds on the server clock.
func (a *admitted) timing(now rt.Time) (latencyMS, queueWaitMS float64) {
	return float64(now-a.tk.Arrive()) / 1e6, float64(a.tk.Admit()-a.tk.Arrive()) / 1e6
}

// admit is the admission prologue reads and updates share. It resolves
// the tenant and mints the lifecycle handle — one handle from admission
// to the device queue: the request deadline arms it, and the HTTP context
// cancels it the moment the client disconnects, wherever the query is —
// then prices the request and runs the scheduler, blocking while queued.
// On refusal it answers the client itself and returns nil.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, pin *int, deadline wire.Duration, d workload.Draw) *admitted {
	a := &admitted{tenant: s.tenantOf(r, pin), qc: workload.NewQueryCtx(s.eng.RT, time.Duration(deadline))}
	stop := context.AfterFunc(r.Context(), func() { a.qc.Cancel(rt.CauseClientCancel) })
	var outcome sched.AdmitOutcome
	a.tk, outcome = s.eng.Admit(s.eng.Request(a.tenant, int(s.querySeq.Add(1)-1), a.tenant, d, a.qc))
	switch outcome {
	case sched.AdmitGranted:
		s.inflight.Add(1)
		a.release = func() {
			s.inflight.Add(-1)
			stop()
		}
		return a
	case sched.AdmitDraining:
		writeError(w, http.StatusServiceUnavailable, wire.ErrorReply{Error: "server draining", Outcome: wire.OutcomeDraining})
	case sched.AdmitRejected:
		writeError(w, http.StatusServiceUnavailable, wire.ErrorReply{Error: "admission queue full", Outcome: wire.OutcomeRejected})
	default: // AdmitDropped: died while queued
		if a.qc.Cause() == rt.CauseAdmissionTimeout {
			writeError(w, http.StatusGatewayTimeout, wire.ErrorReply{Error: "deadline passed in admission queue", Outcome: wire.OutcomeAdmissionTimeout})
		}
		// Client-cancel: the connection is gone; nothing to write.
	}
	stop()
	return nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req wire.QueryRequest
	if !decodePost(w, r, &req) {
		return
	}
	d := workload.Draw{Kind: req.Kind, Range: s.eng.ClipRange(req.Lo, req.Hi)}
	if d.Kind == "" {
		d.Kind = wire.KindQ6
	}
	switch d.Kind {
	case wire.KindQ1, wire.KindQ6, wire.KindScan:
	default:
		writeError(w, http.StatusBadRequest, wire.ErrorReply{Error: fmt.Sprintf("unknown kind %q (want q1, q6 or scan)", d.Kind)})
		return
	}
	if req.Predicate != nil {
		var err error
		d.Pred, err = s.eng.PredicateNamed(req.Predicate.Col, req.Predicate.Lo, req.Predicate.Hi)
		if err != nil {
			writeError(w, http.StatusBadRequest, wire.ErrorReply{Error: "bad predicate: " + err.Error()})
			return
		}
	} else if req.Selectivity > 0 {
		d.Pred = s.eng.PredicateFor(req.Selectivity)
	}

	a := s.admit(w, r, req.Tenant, req.Deadline, d)
	if a == nil {
		return
	}
	defer a.release()

	// Each batch is encoded into the one buffer and written before the
	// next pull. A failed write means the client is gone: emit says so,
	// and Execute cancels the query and stops pulling.
	w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
	flusher, _ := w.(http.Flusher)
	var buf []byte
	var rows, bytes int64
	writeOK := true
	_, err := s.eng.Execute(a.tk, a.qc, d, func(b *exec.Batch) bool {
		buf = encodeBatch(buf[:0], b)
		s.produced.Add(int64(b.N))
		if _, err := w.Write(buf); err != nil {
			writeOK = false
			return false
		}
		rows += int64(b.N)
		bytes += int64(len(buf))
		s.delivered.Add(int64(b.N))
		if flusher != nil {
			flusher.Flush()
		}
		return true
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, wire.ErrorReply{Error: err.Error()})
		return
	}
	if !writeOK {
		return
	}
	trailer := wire.QueryResult{Rows: rows, Bytes: bytes, Tenant: a.tenant, Outcome: wire.OutcomeOK}
	trailer.LatencyMS, trailer.QueueWaitMS = a.timing(s.eng.Now())
	if cause := a.qc.Cause(); cause != rt.CauseNone {
		trailer.Outcome = cause.String()
		trailer.Error = a.qc.Err().Error()
	}
	b, _ := json.Marshal(trailer)
	w.Write(append(b, '\n'))
}

// tenantOf resolves a request's fairness domain: the connection's
// round-robin assignment unless the request pins one explicitly, either
// way reduced into the configured domain count.
func (s *Server) tenantOf(r *http.Request, explicit *int) int {
	tenants := s.eng.TenantCount()
	tenant, _ := r.Context().Value(connIDKey{}).(int)
	if explicit != nil {
		tenant = *explicit
	}
	tenant %= tenants
	if tenant < 0 {
		tenant += tenants
	}
	return tenant
}

// handleUpdate admits one update query through the same scheduler as
// reads — delta-size-priced, so sesf/wfq weigh writes against scans —
// and applies it to the engine's PDT store. The lifecycle binding
// matches reads: the HTTP context cancels a queued write the moment the
// client disconnects, and a write dead at its grant is never applied.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req wire.UpdateRequest
	if !decodePost(w, r, &req) {
		return
	}
	kindName := req.Kind
	if kindName == "" {
		kindName = wire.KindModify
	}
	kind, err := workload.ParseUpdateKind(kindName)
	if err != nil {
		writeError(w, http.StatusBadRequest, wire.ErrorReply{Error: err.Error()})
		return
	}
	d := s.eng.DrawUpdate(kind, req.Batch, req.Target)

	a := s.admit(w, r, req.Tenant, req.Deadline, d)
	if a == nil {
		return
	}
	defer a.release()
	applied, err := s.eng.Execute(a.tk, a.qc, d, nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, wire.ErrorReply{Error: err.Error()})
		return
	}
	if a.qc.Cause() != rt.CauseNone {
		return // dead before the write, or the client left after it
	}
	res := wire.UpdateResult{
		Applied:     applied,
		Tenant:      a.tenant,
		Outcome:     wire.OutcomeOK,
		Checkpoints: s.eng.Checkpoints(),
	}
	res.Version, res.Pending = s.eng.StoreVersion()
	res.LatencyMS, res.QueueWaitMS = a.timing(s.eng.Now())
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}
