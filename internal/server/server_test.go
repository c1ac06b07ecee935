package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/workload"
	"repro/wire"
)

var (
	dbOnce sync.Once
	testDB *tpch.DB
)

// db generates one small TPC-H instance shared by every test; each test
// builds its own Server (and engine) over it.
func db() *tpch.DB {
	dbOnce.Do(func() { testDB = tpch.Generate(0.01, 1) })
	return testDB
}

func newTestServer(t testing.TB, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Serve: workload.DefaultServeConfig()}
	if mutate != nil {
		mutate(&cfg)
	}
	srv := New(db(), cfg)
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnContext = srv.ConnContext
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// postQuery sends one query and splits the NDJSON response into its row
// lines and trailer.
func postQuery(t testing.TB, ts *httptest.Server, body string) (rows []string, trailer wire.QueryResult) {
	t.Helper()
	resp, err := http.Post(ts.URL+wire.PathQuery, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("Content-Type"); got != wire.ContentTypeNDJSON {
		t.Errorf("Content-Type = %q, want %q", got, wire.ContentTypeNDJSON)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	sawTrailer := false
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if line[0] == '[' {
			if sawTrailer {
				t.Fatal("row line after trailer")
			}
			rows = append(rows, line)
			continue
		}
		if sawTrailer {
			t.Fatal("second trailer line")
		}
		sawTrailer = true
		if err := json.Unmarshal([]byte(line), &trailer); err != nil {
			t.Fatalf("trailer %q: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read body: %v", err)
	}
	if !sawTrailer {
		t.Fatal("no trailer line")
	}
	return rows, trailer
}

// TestQueryRoundTrip: the q1/q6 aggregations and a predicated scan over
// the wire, each leaving the engine's books balanced at idle.
func TestQueryRoundTrip(t *testing.T) {
	srv, ts := newTestServer(t, nil)

	_, tr := postQuery(t, ts, `{"Kind":"q6"}`)
	if tr.Outcome != wire.OutcomeOK || tr.Rows == 0 {
		t.Errorf("q6 trailer = %+v, want ok with rows", tr)
	}
	if tr.LatencyMS <= 0 || tr.LatencyMS < tr.QueueWaitMS {
		t.Errorf("q6 latency %.3fms / queue wait %.3fms implausible", tr.LatencyMS, tr.QueueWaitMS)
	}

	assertBalanced(t, srv)

	rows, tr := postQuery(t, ts, `{"Kind":"q1","Hi":10000}`)
	if tr.Outcome != wire.OutcomeOK || int64(len(rows)) != tr.Rows {
		t.Errorf("q1: %d row lines, trailer %+v", len(rows), tr)
	}

	// A scan restricted by an explicit shipdate window returns exactly
	// the rows inside it, and the trailer row count matches the stream.
	rows, tr = postQuery(t, ts, `{"Kind":"scan","Hi":5000,"Predicate":{"Col":"l_shipdate","Lo":0,"Hi":2000}}`)
	if int64(len(rows)) != tr.Rows {
		t.Errorf("scan: %d row lines != trailer %d", len(rows), tr.Rows)
	}

	// Tenant pinning: an explicit tenant is reduced into the domain count.
	_, tr = postQuery(t, ts, fmt.Sprintf(`{"Kind":"q6","Hi":1000,"Tenant":%d}`, srv.eng.TenantCount()+1))
	if tr.Tenant != 1 {
		t.Errorf("tenant = %d, want 1", tr.Tenant)
	}

	assertBalanced(t, srv)
	if st := srv.Statz(); st.Arrived != 4 || st.Stats.Completed != 4 {
		t.Errorf("arrived %d, completed %d; want 4 and 4", st.Arrived, st.Stats.Completed)
	}
}

// assertBalanced fails t unless every layer of the server's engine balances
// its books at idle: call it once every request has been answered.
func assertBalanced(t testing.TB, srv *Server) {
	t.Helper()
	if err := srv.Engine().Check(true); err != nil {
		t.Fatal(err)
	}
}

// badQueries are /v1/query bodies the server must refuse with 400.
var badQueries = []string{
	`{"Kind":"q7"}`,
	`not json`,
	`{"Predicate":{"Col":"no_such_col","Lo":0,"Hi":1}}`,
	`{"Predicate":{"Col":"l_shipdate","Lo":9,"Hi":3}}`,
	// A column the plan may not read could not be filtered on.
	`{"Kind":"scan","Hi":5000,"Predicate":{"Col":"l_commitdate","Lo":0,"Hi":0}}`,
	`{"Kind":"q6","Predicate":{"Col":"l_orderkey","Lo":-5,"Hi":-1}}`,
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, body := range badQueries {
		resp, err := http.Post(ts.URL+wire.PathQuery, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rep wire.ErrorReply
		json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || rep.Error == "" {
			t.Errorf("%s: status %d reply %+v, want 400 with error", body, resp.StatusCode, rep)
		}
	}
}

// TestOversizedBodyRefused: a request body past the bound is answered
// 413 before it is decoded in full, and never reaches admission.
func TestOversizedBodyRefused(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	body := `{"Kind":"q6","Hi":1000,"Pad":"` + strings.Repeat("x", 2<<20) + `"}`
	resp, err := http.Post(ts.URL+wire.PathQuery, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rep wire.ErrorReply
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || rep.Error == "" {
		t.Fatalf("status %d reply %+v, want 413 with error", resp.StatusCode, rep)
	}
	if st := srv.Statz(); st.Arrived != 0 {
		t.Fatalf("arrived = %d, want 0", st.Arrived)
	}
}

// FuzzPostBody posts arbitrary bodies to /v1/query (update false) and
// /v1/update (update true) of one server. Every body is answered with a
// status the protocol defines, none panics the server, and after each
// every layer of the engine balances its books at idle: every arrival
// resolved exactly once, no page left pinned. Its seeds
// (run by plain go test) are the refused bodies, explicit and clamped
// update targets and an oversized body; CI's full job fuzzes on.
func FuzzPostBody(f *testing.F) {
	for _, b := range badQueries {
		f.Add(false, b)
	}
	for _, b := range []string{
		`{"Kind":"q6","Hi":1000}`,
		`{"Kind":"scan","Lo":-5,"Hi":3000,"Selectivity":0.1,"Deadline":"1ms"}`,
		`{"Kind":"q1","Lo":9000000,"Hi":2,"Tenant":-7,"Predicate":{"Col":"l_shipdate","Lo":-9223372036854775808,"Hi":9223372036854775807}}`,
		`{"Kind":"q6","Pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`,
	} {
		f.Add(false, b)
	}
	for _, b := range []string{
		`{"Kind":"upsert"}`,
		`{"Kind":"insert","Batch":3}`,
		`{"Kind":"modify","Batch":1,"Target":{"Frac":0.5,"Date":9000}}`,
		`{"Kind":"delete","Batch":-4,"Target":{"Frac":-1,"Date":-9223372036854775808}}`,
		`{"Kind":"insert","Batch":9223372036854775807,"Target":{"Frac":1e300,"Date":9223372036854775807}}`,
		`{"Target":{"Frac":1},"Deadline":1}`,
		`{"Target":null}`,
	} {
		f.Add(true, b)
	}
	srv, ts := newTestServer(f, nil)
	client := &http.Client{Timeout: 10 * time.Second}
	f.Fuzz(func(t *testing.T, update bool, body string) {
		path := wire.PathQuery
		if update {
			path = wire.PathUpdate
		}
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", body, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("%s %s: status %d", path, body, resp.StatusCode)
		}
		if err := srv.Engine().Check(true); err != nil {
			t.Fatalf("%s %s: %v", path, body, err)
		}
	})
}

func TestStatzSchema(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + wire.PathStatz)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st wire.Statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode statz: %v", err)
	}
	if st.Version != wire.Version {
		t.Errorf("Version = %q", st.Version)
	}
	if st.NumTuples == 0 || st.Tenants == 0 {
		t.Errorf("NumTuples/Tenants = %d/%d, want nonzero", st.NumTuples, st.Tenants)
	}
	// The exported domain is the engine's: clients draw windows and
	// update targets in it.
	dom := srv.Engine().Domain()
	if want := (wire.Predicate{Col: "l_shipdate", Lo: dom.DateMin, Hi: dom.DateMax}); st.Domain != want || st.NumTuples != dom.Rows {
		t.Errorf("Domain/NumTuples = %+v/%d, want the engine's %+v/%d", st.Domain, st.NumTuples, want, dom.Rows)
	}
	if st.Domain.Lo >= st.Domain.Hi {
		t.Errorf("Domain = %+v, want Lo < Hi", st.Domain)
	}
	if st.Stats.MPL != 8 || st.Stats.Admission != "fifo" || st.Stats.Policy == "" {
		t.Errorf("Stats labels = %+v", st.Stats)
	}
	if st.Draining {
		t.Error("Draining = true on a live server")
	}
}

// TestStatsWindowExcludesIdle: throughput is measured over the serving
// window — first admission to now — not over the process lifetime, so a
// server that listened idle before traffic showed up reports completed
// reads over exactly the ElapsedSec it reports.
func TestStatsWindowExcludesIdle(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	const idle = 100 * time.Millisecond
	time.Sleep(idle)
	const reads = 5
	for i := 0; i < reads; i++ {
		postQuery(t, ts, `{"Kind":"q6","Lo":0,"Hi":1000}`)
	}
	eng := srv.Engine()
	res := eng.Stats()
	if res.Sched.Completed != reads {
		t.Fatalf("Completed = %d, want %d", res.Sched.Completed, reads)
	}
	if want := reads / res.ElapsedSec; res.Sched.Throughput != want {
		t.Errorf("Throughput = %v, want reads/ElapsedSec = %v", res.Sched.Throughput, want)
	}
	if lifetime := eng.Now().Seconds(); res.ElapsedSec > lifetime-idle.Seconds() {
		t.Errorf("ElapsedSec = %v includes the idle time (engine lifetime %v)", res.ElapsedSec, lifetime)
	}
}

// TestClientDisconnectCancels: dropping the connection mid-stream must
// cancel the query (client-cancel cause) and account it as Cancelled —
// run under -race this also exercises the cancel racing the handler's
// pull.
func TestClientDisconnectCancels(t *testing.T) {
	srv, ts := newTestServer(t, nil)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+wire.PathQuery,
		strings.NewReader(`{"Kind":"scan"}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	// Read one line to be sure the query is executing, then vanish.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("first line: %v", err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Statz()
		if st.Stats.Cancelled == 1 {
			if st.Arrived != 1 {
				t.Errorf("arrived = %d, want 1", st.Arrived)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query never cancelled: %+v", st.Stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gatedWriter is a ResponseWriter whose Write blocks until released —
// a client that never reads, without kernel socket buffers hiding the
// stall.
type gatedWriter struct {
	gate   chan struct{}
	header http.Header

	mu  sync.Mutex
	buf bytes.Buffer
}

func (g *gatedWriter) Header() http.Header { return g.header }
func (g *gatedWriter) WriteHeader(int)     {}
func (g *gatedWriter) Write(p []byte) (int, error) {
	<-g.gate
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.Write(p)
}

// TestSlowReaderBackpressure: with the client stalled, the handler is
// blocked writing the first batch and pulls nothing more — produced is
// exactly that batch — and the stream resumes to completion when the
// client drains.
func TestSlowReaderBackpressure(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	total := srv.eng.NumTuples()

	w := &gatedWriter{gate: make(chan struct{}), header: http.Header{}}
	req := httptest.NewRequest(http.MethodPost, wire.PathQuery, strings.NewReader(`{"Kind":"scan"}`))
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Handler().ServeHTTP(w, req)
	}()

	// Wait for the first batch, then hold the writer a while longer: the
	// plan must not be pulled past it.
	want := min(int64(exec.VectorSize), total)
	deadline := time.Now().Add(10 * time.Second)
	for srv.Produced() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the first batch was never produced")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	if got := srv.Produced(); got != want {
		t.Errorf("produced %d rows while the client is stalled, want exactly the first batch (%d)", got, want)
	}

	// Release the client; the stream must run to completion.
	close(w.gate)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("handler did not finish after the client resumed")
	}
	if got := srv.Delivered(); got != total {
		t.Errorf("delivered %d rows, want %d", got, total)
	}
	var trailer wire.QueryResult
	lines := bytes.Split(bytes.TrimSpace(w.buf.Bytes()), []byte{'\n'})
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil {
		t.Fatalf("trailer: %v", err)
	}
	if trailer.Rows != total || trailer.Outcome != wire.OutcomeOK {
		t.Errorf("trailer = %+v, want %d rows ok", trailer, total)
	}
}

// TestUpdateRoundTrip drives the write path over the socket: updates of
// every kind are admitted, applied to the PDT store and answered with a
// versioned UpdateResult; crossing the checkpoint trigger completes a
// background merge; reads pinned after the updates still stream; and
// the ledger reconciles with writes counted. A private database keeps
// the checkpoint's table mutation away from the shared fixture.
func TestUpdateRoundTrip(t *testing.T) {
	priv := tpch.Generate(0.01, 2)
	cfg := Config{Serve: workload.DefaultServeConfig()}
	cfg.Serve.CheckpointOps = 8
	srv := New(priv, cfg)
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnContext = srv.ConnContext
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	post := func(body string) (wire.UpdateResult, int) {
		t.Helper()
		resp, err := http.Post(ts.URL+wire.PathUpdate, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST update: %v", err)
		}
		defer resp.Body.Close()
		var res wire.UpdateResult
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				t.Fatalf("decode UpdateResult: %v", err)
			}
		}
		return res, resp.StatusCode
	}

	// An explicit in-range target writes exactly its Date at its row: a
	// one-row scan with the predicate [Date, Date] finds nothing before
	// the modify and the row after it. Out-of-range targets are clamped
	// into the table: Frac into [0, 1] (both ends land on row 0, since
	// positions wrap at the row count) and Date into the domain. They run
	// before any insert or delete, so the row count is the loaded one.
	dom := srv.Engine().Domain()
	holds := func(rid, date int64) bool {
		t.Helper()
		rows, tr := postQuery(t, ts, fmt.Sprintf(`{"Kind":"scan","Lo":%d,"Hi":%d,"Predicate":{"Col":"l_shipdate","Lo":%d,"Hi":%d}}`, rid, rid+1, date, date))
		if tr.Outcome != wire.OutcomeOK || len(rows) > 1 {
			t.Fatalf("row %d at %d: %d rows, trailer %+v", rid, date, len(rows), tr)
		}
		return len(rows) == 1
	}
	mid := (dom.DateMin + dom.DateMax) / 2
	for _, c := range []struct {
		frac, want float64 // the row is int64(want*Rows) % Rows
		date, land int64
	}{
		{0.5, 0.5, mid, mid},
		{0.25, 0.25, mid + 1, mid + 1},
		{-1, 0, dom.DateMax + 100, dom.DateMax},
		{1e300, 0, dom.DateMin - 100, dom.DateMin},
		{1, 0, math.MaxInt64, dom.DateMax},
		{0, 0, math.MinInt64, dom.DateMin},
	} {
		rid := int64(c.want*float64(dom.Rows)) % dom.Rows
		if holds(rid, c.land) {
			t.Fatalf("target %+v: row %d holds %d before the modify", c, rid, c.land)
		}
		body := fmt.Sprintf(`{"Kind":"modify","Batch":1,"Target":{"Frac":%g,"Date":%d}}`, c.frac, c.date)
		if res, code := post(body); code != http.StatusOK || res.Outcome != wire.OutcomeOK || res.Applied != 1 {
			t.Fatalf("%s: status %d result %+v", body, code, res)
		}
		if !holds(rid, c.land) {
			t.Errorf("%s: row %d does not hold %d", body, rid, c.land)
		}
	}

	var lastVersion int64
	for i, body := range []string{
		`{"Kind":"insert","Batch":3}`,
		`{"Kind":"modify","Batch":4}`,
		`{"Kind":"delete","Batch":2}`,
		`{"Batch":2}`, // kind defaults to modify
	} {
		res, code := post(body)
		if code != http.StatusOK || res.Outcome != wire.OutcomeOK {
			t.Fatalf("update %d: status %d result %+v", i, code, res)
		}
		if res.Applied == 0 {
			t.Errorf("update %d applied nothing: %+v", i, res)
		}
		if res.Version <= lastVersion {
			t.Errorf("update %d version %d did not advance past %d", i, res.Version, lastVersion)
		}
		lastVersion = res.Version
	}

	if _, code := post(`{"Kind":"upsert"}`); code != http.StatusBadRequest {
		t.Errorf("unknown kind: status %d, want 400", code)
	}

	// Push past the checkpoint trigger and wait out the background merge.
	for i := 0; i < 4; i++ {
		if res, code := post(`{"Kind":"modify","Batch":4}`); code != http.StatusOK || res.Outcome != wire.OutcomeOK {
			t.Fatalf("trigger update %d: status %d result %+v", i, code, res)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for srv.Statz().Stats.Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Reads still work over the checkpointed table.
	if _, tr := postQuery(t, ts, `{"Kind":"q6","Hi":5000}`); tr.Outcome != wire.OutcomeOK {
		t.Fatalf("post-checkpoint read: %+v", tr)
	}

	assertBalanced(t, srv)
	st := srv.Statz()
	if st.Stats.Writes != 14 {
		t.Errorf("Writes = %d, want 14", st.Stats.Writes)
	}
	if st.Stats.WrQps <= 0 {
		t.Errorf("WrQps = %v, want positive", st.Stats.WrQps)
	}
	if st.Stats.Checkpoints == 0 {
		t.Error("statz lost the checkpoint count")
	}
}

// TestStatzUnderTraffic polls Statz while four clients run q6, scan and
// update traffic: the scheduler's records are read live while later
// completions append to them (run with -race). In every snapshot the
// arrivals not yet resolved are exactly the running and queued ones, and
// once the clients are done the engine balances its books at idle.
func TestStatzUnderTraffic(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	const clients, requests = 4, 30

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				switch i % 3 {
				case 0:
					postQuery(t, ts, `{"Kind":"q6","Hi":5000}`)
				case 1:
					postQuery(t, ts, `{"Kind":"scan","Hi":2000}`)
				default:
					resp, err := http.Post(ts.URL+wire.PathUpdate, "application/json", strings.NewReader(`{"Kind":"modify","Batch":2}`))
					if err != nil {
						t.Errorf("POST update: %v", err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	polls := 0
	for live := true; live; polls++ {
		select {
		case <-done:
			live = false
		default:
		}
		st := srv.Statz()
		unresolved := st.Arrived - st.Stats.Completed - st.Stats.Rejected - st.Stats.TimedOut - st.Stats.Cancelled
		if unresolved != int64(st.Running+st.Queued) {
			t.Fatalf("poll %d: %d of %d arrivals unresolved, but %d running and %d queued (%+v)",
				polls, unresolved, st.Arrived, st.Running, st.Queued, st.Stats)
		}
	}

	assertBalanced(t, srv)
	if st := srv.Statz(); st.Arrived != clients*requests {
		t.Errorf("after %d polls: arrived %d, want %d", polls, st.Arrived, clients*requests)
	}
}

// TestDrain: after Drain, health flips to 503, new queries resolve
// "draining" without polluting the arrival stats, and the reconciliation
// invariant holds.
func TestDrain(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	if _, tr := postQuery(t, ts, `{"Kind":"q6","Hi":1000}`); tr.Outcome != wire.OutcomeOK {
		t.Fatalf("pre-drain query: %+v", tr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	resp, err := http.Post(ts.URL+wire.PathQuery, "application/json", strings.NewReader(`{"Kind":"q6"}`))
	if err != nil {
		t.Fatal(err)
	}
	var rep wire.ErrorReply
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || rep.Outcome != wire.OutcomeDraining {
		t.Errorf("draining POST: status %d reply %+v", resp.StatusCode, rep)
	}

	if resp, err = http.Get(ts.URL + wire.PathHealth); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d", resp.StatusCode)
	}

	st := srv.Statz()
	if !st.Draining || st.DrainRejected != 1 {
		t.Errorf("statz: draining=%v drainRejected=%d", st.Draining, st.DrainRejected)
	}
	if st.Arrived != 1 || st.Stats.Completed != 1 {
		t.Errorf("drain polluted stats: %+v", st)
	}
}

// TestNDJSONBodiesUnchanged pins the row bytes of a scan, a q1 and a q6
// response. The hashes were recorded from the per-value engine and the
// strconv-only encoder before either was rewritten, so they hold the
// vector primitives, the NDJSON fast paths and the generator to "same
// bytes on the wire". One thread per query: an XChg merges partitions in
// arrival order, which is not reproducible on real threads.
func TestNDJSONBodiesUnchanged(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Serve.ThreadsPerQuery = 1 })
	for _, tc := range []struct {
		body string
		rows int
		want uint64
	}{
		{`{"Kind":"scan","Lo":1000,"Hi":31000}`, 30000, 0x42ebfa002125a91c},
		{`{"Kind":"scan","Hi":20000,"Predicate":{"Col":"l_shipdate","Lo":300,"Hi":900}}`, 4902, 0x7955c3e0ebe2ff89},
		{`{"Kind":"q1"}`, 4, 0x9900ce8d16d0824d},
		{`{"Kind":"q6"}`, 1, 0x80860a05b2b21b35},
	} {
		rows, _ := postQuery(t, ts, tc.body)
		h := fnv.New64a()
		for _, r := range rows {
			h.Write([]byte(r))
			h.Write([]byte{'\n'})
		}
		if got := h.Sum64(); got != tc.want || len(rows) != tc.rows {
			t.Errorf("%s: %d rows, body hash %#x; want %d rows, %#x", tc.body, len(rows), got, tc.rows, tc.want)
		}
	}
}

// TestEncodeBatchAllocs: encoding into a buffer already grown by one
// batch allocates nothing, so a stream costs one buffer however many
// batches it writes.
func TestEncodeBatchAllocs(t *testing.T) {
	b := exec.NewBatch([]storage.ColumnType{storage.Int64, storage.Float64, storage.String})
	for i := 0; i < exec.VectorSize; i++ {
		b.Vecs[0].I64 = append(b.Vecs[0].I64, int64(i)*7919)
		b.Vecs[1].F64 = append(b.Vecs[1].F64, float64(i)/100+1e-9*float64(i%3))
		b.Vecs[2].Str = append(b.Vecs[2].Str, []string{"A", "N", `quo"te`, "réf"}[i%4])
	}
	b.N = exec.VectorSize
	buf := encodeBatch(nil, b)
	if allocs := testing.AllocsPerRun(20, func() { buf = encodeBatch(buf[:0], b) }); allocs != 0 {
		t.Errorf("encodeBatch into a grown buffer: %v allocs, want 0", allocs)
	}
}

// TestNDJSONFastPathsMatchStrconv: the encoder's float shortcuts emit
// exactly the bytes of the strconv rendering they stand in for, and its
// strings exactly encoding/json's, which are valid JSON (strconv.Quote's
// \a, \v, \x00 and \xff are not).
func TestNDJSONFastPathsMatchStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, -0.1, 0.05, 0.07, 0.29, 1.15, 999999, 1e6, -1e6, 999999.99, 1e6 + 0.25,
		0.01, 0.001, 0.005, 1e-5, 123456.78, 1e8, 1e21, 1e-7, 0.1 + 0.2, 2.675, 1.005, 4.35,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, math.MaxInt64, math.MinInt64}
	for k := -20000; k <= 20000; k++ {
		floats = append(floats, float64(k)/100, float64(k)/1000, float64(k)*50.5)
	}
	for i := 0; i < 200000; i++ {
		switch i % 4 {
		case 0:
			floats = append(floats, math.Float64frombits(rng.Uint64()))
		case 1:
			floats = append(floats, float64(rng.Int63n(4e8)-2e8)/100)
		case 2:
			floats = append(floats, math.Nextafter(float64(rng.Int63n(2e8)-1e8)/100, rng.NormFloat64()))
		case 3:
			floats = append(floats, rng.NormFloat64()*1e6)
		}
	}
	for i, got := range encodeColumn(floats) {
		if want := strconv.FormatFloat(floats[i], 'g', -1, 64); got != want {
			t.Fatalf("float %x: %q, strconv %q", math.Float64bits(floats[i]), got, want)
		}
	}

	strs := []string{"", "A", "N", "lineitem comment", "a b~!#[]{}", `quo"te`, `back\slash`, "tab\t", "nl\n", "del\x7f", "réf", "\xff\xfe", "nul\x00", "日本",
		"bell\a", "vt\v", "\b\f\r", "\x1f", "\u2028\u2029", "\ufffd", "\xe2\x80", "<&>"}
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = byte(rng.Intn(256))
			if rng.Intn(4) > 0 {
				b[j] = byte(' ' + rng.Intn(95))
			}
		}
		strs = append(strs, string(b))
	}
	for _, s := range strs {
		got := appendString(nil, s)
		if want := refAppendString(nil, s); string(got) != string(want) {
			t.Fatalf("string %q: %s, encoding/json %s", s, got, want)
		}
		if !json.Valid(got) {
			t.Fatalf("string %q: %s is not JSON", s, got)
		}
	}
}
