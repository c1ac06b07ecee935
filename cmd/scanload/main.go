// Command scanload drives a running scanserved over HTTP with the same
// open-loop workload the in-process serving sweep generates. Both run
// one workload.Generator stream per client stream through one client
// loop, workload.Stream.Drive — per-stream Poisson arrivals, the skewed
// range draw, the q1/q6 coin, the selectivity-mix draw and its shipdate
// window, the update kind, batch and target, and the client-abandon
// discipline, from the same per-stream seeds — and differ only in
// transport: RunServe hands each draw to the engine in process, scanload
// sends it over the socket. So socket-path numbers line up with
// `scanbench -serve -real` rows.
//
// scanload learns the table's row count, shipdate bounds and tenant
// count from the server's /v1/statz, draws every request in that domain
// and sends it whole: a read carries its row range and, below
// selectivity 1, its explicit l_shipdate window; an update carries its
// kind, batch and Target. It pins each stream to its generator tenant
// (connection pooling would otherwise scramble the fairness domains),
// fires each query in its own goroutine (open loop: a slow query does
// not hold back its stream's arrivals), abandons a query by cancelling
// its HTTP request when the loop's canceller fires, and classifies
// outcomes from the wire protocol: the NDJSON trailer for admitted
// queries, the ErrorReply outcome for refused ones, transport errors as
// client cancels.
//
// With -writefrac, that fraction of each stream's queries become
// updates POSTed to /v1/update (insert/delete/modify in the sweep's
// default 1:1:2 mix, batch 1-4), admitted by the server through the
// same scheduler as reads.
//
// Server-shaping axes (-mpls, -devices, -policies, ...) belong to
// scanserved and are rejected here.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	scanshare "repro"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/wire"
)

func main() { os.Exit(run(os.Args, os.Stdout)) }

// run is scanload with command line args (the program name first),
// printing its report to stdout; it returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet(args[0], flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "scanserved base URL")
	def := scanshare.DefaultServeConfig()
	opts := scanshare.Options{Seed: def.Seed, Streams: def.Streams, QueriesPerStream: def.QueriesPerStream}
	opts.RegisterFlags(fs, false, true)
	fs.Parse(args[1:])
	if err := opts.Parse(); err != nil {
		fmt.Fprintf(os.Stderr, "scanload: %v\n", err)
		return 2
	}
	// Server-shaping axes configure scanserved, not the traffic.
	if serverSide := opts.ServerSide(); len(serverSide) > 0 {
		fmt.Fprintf(os.Stderr, "scanload: -%s shape the server; pass them to scanserved\n", strings.Join(serverSide, "/-"))
		return 2
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: opts.Streams}}
	st, err := fetchStatz(client, *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanload: %s: %v\n", *addr, err)
		return 1
	}
	// The one axes→config mapping yields the generator's knobs (rate,
	// SLO, skew, deadline, cancel and write fractions, seed). Unlike a
	// sweep, where each selectivity is a cell, here the whole list is the
	// mix every query draws from.
	cfg := scanshare.NewServeEngineConfig(opts, opts.ServeAxes)
	cfg.Selectivities = opts.Selectivities
	cfg.Tenants = st.Tenants
	gen := workload.NewGenerator(cfg, workload.Domain{Rows: st.NumTuples, DateMin: st.Domain.Lo, DateMax: st.Domain.Hi})
	fmt.Fprintf(stdout, "scanload: %s serving %d tuples, %d tenants; %d streams x %d queries at %g q/s/stream\n",
		*addr, st.NumTuples, cfg.Tenants, opts.Streams, opts.QueriesPerStream, cfg.ArrivalRate)

	deadline := wire.Duration(cfg.Deadline)
	agg := &aggregate{}
	start := time.Now()
	r := rt.NewReal()
	wg := r.NewWaitGroup() // counts what Drive spawns; r.Run awaits it all
	for s := 0; s < opts.Streams; s++ {
		stream := gen.Stream(s)
		r.Go("stream", func() {
			stream.Drive(r, wg, func(_ int, d workload.Draw, qc *rt.QueryCtx) func() {
				path, body := wire.PathQuery, any(nil)
				if d.Write {
					path, body = wire.PathUpdate, wire.UpdateRequest{
						Tenant: &stream.Tenant, Kind: d.Update.Kind.String(), Batch: d.Update.Batch,
						Target: &wire.Target{Frac: d.Update.Frac, Date: d.Update.Date}, Deadline: deadline,
					}
				} else {
					req := wire.QueryRequest{
						Tenant: &stream.Tenant, Kind: d.Kind, Lo: d.Range.Lo, Hi: d.Range.Hi, Deadline: deadline,
					}
					if d.Pred != nil {
						req.Predicate = &wire.Predicate{Col: st.Domain.Col, Lo: d.Pred.Lo, Hi: d.Pred.Hi}
					}
					body = req
				}
				return func() { agg.record(post(client, *addr+path, body, qc), d.Write) }
			})
		})
	}
	r.Run()
	// Throughput runs to the last resolution: a canceller may still be
	// sleeping out its delay after its query has answered.
	elapsed := agg.last.Sub(start)

	agg.mu.Lock()
	total := agg.completed + agg.rejected + agg.timedOut + agg.cancelled
	fmt.Fprintf(stdout, "scanload: client   %d queries in %.2fs: completed=%d rejected=%d timedout=%d cancelled=%d rows=%d writes=%d applied=%d\n",
		total, elapsed.Seconds(), agg.completed, agg.rejected, agg.timedOut, agg.cancelled, agg.rows, agg.writes, agg.applied)
	fmt.Fprintf(stdout, "scanload: client   thr=%.2f q/s  p50=%s p95=%s p99=%s\n",
		float64(agg.completed)/elapsed.Seconds(),
		time.Duration(scanshare.Percentile(agg.lats, 50)).Round(time.Millisecond),
		time.Duration(scanshare.Percentile(agg.lats, 95)).Round(time.Millisecond),
		time.Duration(scanshare.Percentile(agg.lats, 99)).Round(time.Millisecond))
	agg.mu.Unlock()

	final, err := fetchStatz(client, *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanload: final statz: %v\n", err)
		return 1
	}
	row := final.Stats
	row.Rate = cfg.ArrivalRate
	fmt.Fprintf(stdout, "scanload: server   completed=%d rejected=%d timedout=%d cancelled=%d thr=%.2f q/s  wr=%d wrthr=%.2f q/s ckpts=%d mrg95=%.1fms  p50=%.1fms p95=%.1fms p99=%.1fms qwait95=%.1fms slo%%=%.1f\n",
		row.Completed, row.Rejected, row.TimedOut, row.Cancelled,
		row.Throughput, row.Writes, row.WrQps, row.Checkpoints, row.MergeP95ms,
		row.P50ms, row.P95ms, row.P99ms, row.QWaitP95ms, row.SLOPct)
	if opts.JSONOut != "" {
		if err := scanshare.WriteServeRows(opts.JSONOut, []wire.ServeStats{row}); err != nil {
			fmt.Fprintf(os.Stderr, "scanload: -json: %v\n", err)
			return 1
		}
	}
	return 0
}

// aggregate accumulates per-query results across all streams.
type aggregate struct {
	mu        sync.Mutex
	completed int64
	rejected  int64
	timedOut  int64
	cancelled int64
	rows      int64
	writes    int64 // update queries completed (a subset of completed)
	applied   int64 // delta operations those updates committed
	lats      []sim.Duration
	last      time.Time // the latest resolution
}

// record buckets one outcome the way the scheduler's stats do:
// refusals (rejected, draining) are Rejected, admission timeouts are
// TimedOut, and both abandon causes (client-cancel, deadline-exceeded)
// are Cancelled — so the client table reconciles against /v1/statz.
// Updates land in the same ledger as reads (the server's scheduler
// counts writes in Completed too), with the write-specific tallies
// alongside.
func (a *aggregate) record(r result, write bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.last = time.Now()
	a.rows += r.rows
	switch r.outcome {
	case wire.OutcomeOK:
		a.completed++
		a.lats = append(a.lats, sim.Duration(r.latency))
		if write {
			a.writes++
			a.applied += r.applied
		}
	case wire.OutcomeRejected, wire.OutcomeDraining:
		a.rejected++
	case wire.OutcomeAdmissionTimeout:
		a.timedOut++
	default:
		a.cancelled++
	}
}

type result struct {
	outcome string
	latency time.Duration
	rows    int64
	applied int64
}

// post sends one generated request and reads its response to the end.
// Cancelling qc abandons it — still queued at the server or mid-stream,
// the disconnect cancels it there. A query answers with an NDJSON stream:
// rows are counted and the object trailer carries the authoritative
// outcome; an update answers with one UpdateResult object, which is the
// same thing without rows.
func post(c *http.Client, url string, body any, qc *rt.QueryCtx) result {
	start := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	qc.OnCancel(cancel)
	b, _ := json.Marshal(body) // the wire request types always encode
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return result{outcome: "request-error"}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return result{outcome: wire.OutcomeClientCancel, latency: time.Since(start)}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er wire.ErrorReply
		_ = json.NewDecoder(resp.Body).Decode(&er)
		out := er.Outcome
		if out == "" {
			out = fmt.Sprintf("http-%d", resp.StatusCode)
		}
		return result{outcome: out, latency: time.Since(start)}
	}
	br := bufio.NewReader(resp.Body)
	res := result{}
	// Both wire.QueryResult and wire.UpdateResult carry Outcome; Applied
	// is the update's.
	var trailer struct {
		Outcome string
		Applied int64
	}
	sawTrailer := false
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			switch line[0] {
			case '[':
				res.rows++
			case '{':
				if json.Unmarshal(line, &trailer) == nil {
					sawTrailer = true
				}
			}
		}
		if err != nil {
			break
		}
	}
	res.latency = time.Since(start)
	res.outcome, res.applied = trailer.Outcome, trailer.Applied
	if !sawTrailer {
		// Stream or connection cut before the trailer: the abandon (ours
		// or the network's) is the outcome.
		res.outcome = wire.OutcomeClientCancel
	}
	return res
}

// fetchStatz reads and decodes the server's /v1/statz snapshot.
func fetchStatz(c *http.Client, base string) (wire.Statz, error) {
	var st wire.Statz
	resp, err := c.Get(base + wire.PathStatz)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statz: http %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("statz: %v", err)
	}
	return st, nil
}
