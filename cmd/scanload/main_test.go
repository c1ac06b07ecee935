package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	scanshare "repro"
	"repro/internal/server"
	"repro/internal/tpch"
	"repro/internal/workload"
	"repro/wire"
)

// loadArgs is the traffic both tests send: a selectivity mix, updates and
// client cancels, the features whose draws need the table's domain. Four
// streams on the server's four tenants, so a request's tenant names its
// stream.
var loadArgs = []string{"-streams", "4", "-queries", "8", "-rates", "40",
	"-selectivities", "1,0.1", "-writefrac", "0.2", "-cancel", "0.2"}

const streams, queries = 4, 8

var (
	dbOnce sync.Once
	testDB *tpch.DB
)

// clusteredDB is one small TPC-H instance with lineitem clustered on
// l_shipdate, so a shipdate window prunes blocks.
func clusteredDB() *tpch.DB {
	dbOnce.Do(func() { testDB = tpch.GenerateOpt(0.01, 1, tpch.GenOptions{ClusteredShipdate: true}) })
	return testDB
}

// recorder notes the shape of every request the server decodes, by
// tenant, before handing it on.
type recorder struct {
	mu   sync.Mutex
	seen map[int][]string
	n    int
}

func (rec *recorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(b))
		var shape string
		var tenant *int
		switch r.URL.Path {
		case wire.PathQuery:
			var q wire.QueryRequest
			json.Unmarshal(b, &q)
			var lo, hi int64 = 0, -1
			if q.Predicate != nil {
				lo, hi = q.Predicate.Lo, q.Predicate.Hi
			}
			shape, tenant = readShape(q.Kind, q.Lo, q.Hi, lo, hi), q.Tenant
		case wire.PathUpdate:
			var u wire.UpdateRequest
			json.Unmarshal(b, &u)
			var frac float64 = -1
			var date int64
			if u.Target != nil {
				frac, date = u.Target.Frac, u.Target.Date
			}
			shape, tenant = writeShape(u.Kind, u.Batch, frac, date), u.Tenant
		}
		if tenant != nil {
			rec.mu.Lock()
			rec.seen[*tenant] = append(rec.seen[*tenant], shape)
			rec.n++
			rec.mu.Unlock()
		}
		h.ServeHTTP(w, r)
	})
}

func readShape(kind string, lo, hi, winLo, winHi int64) string {
	return fmt.Sprintf("%s rows [%d,%d) shipdate [%d,%d]", kind, lo, hi, winLo, winHi)
}

func writeShape(kind string, batch int, frac float64, date int64) string {
	return fmt.Sprintf("%s x%d at %v date %d", kind, batch, frac, date)
}

// startServer serves the clustered database on an httptest server whose
// handler rec wraps.
func startServer(t *testing.T, rec *recorder) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(clusteredDB(), server.Config{Serve: workload.DefaultServeConfig()})
	ts := httptest.NewUnstartedServer(rec.wrap(srv.Handler()))
	ts.Config.ConnContext = srv.ConnContext
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	if n := srv.Engine().TenantCount(); n != streams {
		t.Fatalf("server has %d tenants, want one per stream (%d)", n, streams)
	}
	return srv, ts
}

// runLoad runs scanload against ts and returns its report.
func runLoad(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	var out bytes.Buffer
	if code := run(append([]string{"scanload", "-addr", ts.URL}, loadArgs...), &out); code != 0 {
		t.Fatalf("scanload exited %d:\n%s", code, &out)
	}
	return out.String()
}

// settle waits until the server has resolved every arrival and done
// holds, for the requests a client abandoned may still be on their way.
func settle(t *testing.T, srv *server.Server, done func(wire.Statz) bool) wire.Statz {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Statz()
		resolved := st.Stats.Completed + st.Stats.Rejected + st.Stats.TimedOut + st.Stats.Cancelled
		if st.Running == 0 && st.Queued == 0 && resolved == st.Arrived && done(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never settled: arrived %d, resolved %d, running %d, queued %d", st.Arrived, resolved, st.Running, st.Queued)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunReconciles drives a live server over clustered data: the
// client's ledger counts exactly the server's arrivals, the updates
// applied, and the shipdate windows crossed the socket, since the zone
// maps skipped tuples. A request abandoned before its POST reached the
// server would be in the client's ledger alone; at the default seed the
// shortest cancel delay these flags draw is 96 ms.
func TestRunReconciles(t *testing.T) {
	rec := &recorder{seen: map[int][]string{}}
	srv, ts := startServer(t, rec)
	out := runLoad(t, ts)
	m := regexp.MustCompile(`client +(\d+) queries in .* applied=(\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no client ledger in:\n%s", out)
	}
	total, _ := strconv.ParseInt(m[1], 10, 64)
	applied, _ := strconv.ParseInt(m[2], 10, 64)
	if total != streams*queries {
		t.Errorf("client ledger %d, want %d queries", total, streams*queries)
	}
	st := settle(t, srv, func(st wire.Statz) bool { return st.Arrived >= total })
	if st.Arrived != total {
		t.Errorf("server arrivals %d, client ledger %d", st.Arrived, total)
	}
	if applied <= 0 {
		t.Errorf("applied = %d, want updates applied over the socket", applied)
	}
	if st.Stats.SkipPct <= 0 {
		t.Errorf("SkipPct = %v, want the windows to prune", st.Stats.SkipPct)
	}
}

// TestSameRequestsAsInProcess holds the socket transport to the
// in-process one: each stream sends the server exactly the reads (kind,
// row range, shipdate window) and updates (kind, batch, position, date)
// RunServe's Generator draws over the engine's own domain, although
// scanload read that domain off /v1/statz. A stream's POSTs run
// concurrently, so each stream's requests are compared in sorted order.
func TestSameRequestsAsInProcess(t *testing.T) {
	rec := &recorder{seen: map[int][]string{}}
	srv, ts := startServer(t, rec)
	runLoad(t, ts)
	settle(t, srv, func(wire.Statz) bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.n >= streams*queries
	})

	fs := flag.NewFlagSet("scanload", flag.ContinueOnError)
	def := scanshare.DefaultServeConfig()
	opts := scanshare.Options{Seed: def.Seed, Streams: def.Streams, QueriesPerStream: def.QueriesPerStream}
	opts.RegisterFlags(fs, false, true)
	if err := fs.Parse(loadArgs); err != nil {
		t.Fatal(err)
	}
	if err := opts.Parse(); err != nil {
		t.Fatal(err)
	}
	cfg := scanshare.NewServeEngineConfig(opts, opts.ServeAxes)
	cfg.Selectivities = opts.Selectivities
	cfg.Tenants = srv.Engine().TenantCount()
	gen := workload.NewGenerator(cfg, srv.Engine().Domain())

	rec.mu.Lock()
	defer rec.mu.Unlock()
	for s := 0; s < streams; s++ {
		st := gen.Stream(s)
		var want []string
		for q := 0; q < queries; q++ {
			d := st.Next()
			switch {
			case d.Write:
				want = append(want, writeShape(d.Update.Kind.String(), d.Update.Batch, d.Update.Frac, d.Update.Date))
			case d.Pred != nil:
				want = append(want, readShape(d.Kind, d.Range.Lo, d.Range.Hi, d.Pred.Lo, d.Pred.Hi))
			default:
				want = append(want, readShape(d.Kind, d.Range.Lo, d.Range.Hi, 0, -1))
			}
		}
		got := rec.seen[st.Tenant]
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("stream %d sent\n%q\nwant\n%q", s, got, want)
		}
	}
}
