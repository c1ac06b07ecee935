// Command scanload drives a running scanserved over HTTP with the same
// open-loop workload the in-process serving sweep generates. Both run
// the one workload.Generator — per-stream Poisson arrivals, the skewed
// range draw, the q1/q6 coin, the selectivity-mix draw and the
// client-abandon discipline, from the same per-stream seeds — and differ
// only in transport: RunServe hands each draw to the engine in process,
// scanload sends it over the socket. So socket-path numbers line up
// with `scanbench -serve -real` rows.
//
// scanload learns the table size and tenant count from the server's
// /v1/statz, pins each stream to its generator tenant (connection
// pooling would otherwise scramble the fairness domains), fires each
// query in its own goroutine (open loop: a slow query does not hold back
// its stream's arrivals), and classifies outcomes from the wire
// protocol: the NDJSON trailer for admitted queries, the ErrorReply
// outcome for refused ones, transport errors as client cancels.
//
// With -writefrac, that fraction of each stream's queries become
// updates POSTed to /v1/update (insert/delete/modify in the sweep's
// default 1:1:2 mix, batch 1-4), admitted by the server through the
// same scheduler as reads.
//
// One knowing divergence from the in-process sweep: the draws that need
// the table's value domain — where a predicate window of the drawn
// selectivity sits, which position and date an update targets — happen
// server-side, since the domain lives there. scanload's generator has no
// domain hook and the request carries the selectivity, or the update
// kind and batch, so runs with -selectivities or -writefrac consume
// fewer rng draws per query than RunServe does. Default runs match
// exactly.
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
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	scanshare "repro"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/wire"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "scanserved base URL")
	def := scanshare.DefaultServeConfig()
	base := scanshare.Options{Seed: def.Seed, Streams: def.Streams, QueriesPerStream: def.QueriesPerStream}
	var axes scanshare.ServeAxes
	base.RegisterFlags(flag.CommandLine, false, true)
	axes.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := axes.Parse(); err != nil {
		fmt.Fprintf(os.Stderr, "scanload: %v\n", err)
		os.Exit(2)
	}
	// Server-shaping axes configure scanserved, not the traffic.
	serverSide := axes.ServerSide()
	if len(serverSide) > 0 {
		fmt.Fprintf(os.Stderr, "scanload: -%s shape the server; pass them to scanserved\n", strings.Join(serverSide, "/-"))
		os.Exit(2)
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: base.Streams}}
	st, err := fetchStatz(client, *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanload: %s: %v\n", *addr, err)
		os.Exit(1)
	}
	// The one axes→config mapping yields the generator's knobs (rate,
	// SLO, skew, cancel and write fractions, seed). Unlike a sweep, where
	// each selectivity is a cell, here the whole list is the mix every
	// query draws from.
	cfg := scanshare.NewServeEngineConfig(base, axes)
	cfg.Selectivities = axes.Selectivities
	cfg.Tenants = st.Tenants
	gen := workload.NewGenerator(cfg, st.NumTuples, nil)
	rate := cfg.ArrivalRate
	fmt.Printf("scanload: %s serving %d tuples, %d tenants; %d streams x %d queries at %g q/s/stream\n",
		*addr, st.NumTuples, cfg.Tenants, base.Streams, base.QueriesPerStream, rate)

	deadline := wire.Duration(axes.Deadline)
	agg := &aggregate{}
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < base.Streams; s++ {
		stream := gen.Stream(s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var qwg sync.WaitGroup
			for q := 0; q < base.QueriesPerStream; q++ {
				d := stream.Next()
				time.Sleep(d.Gap)
				var path string
				var body any
				if d.Write {
					path, body = wire.PathUpdate, wire.UpdateRequest{
						Tenant: &stream.Tenant, Kind: d.Update.Kind.String(), Batch: d.Update.Batch, Deadline: deadline,
					}
				} else {
					req := wire.QueryRequest{
						Tenant: &stream.Tenant, Kind: d.Kind, Lo: d.Range.Lo, Hi: d.Range.Hi, Deadline: deadline,
					}
					if d.Selectivity < 1 {
						req.Selectivity = d.Selectivity
					}
					path, body = wire.PathQuery, req
				}
				qwg.Add(1)
				go func() {
					defer qwg.Done()
					agg.record(post(client, *addr+path, body, d), d.Write)
				}()
			}
			qwg.Wait()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	agg.mu.Lock()
	total := agg.completed + agg.rejected + agg.timedOut + agg.cancelled
	fmt.Printf("scanload: client   %d queries in %.2fs: completed=%d rejected=%d timedout=%d cancelled=%d rows=%d writes=%d applied=%d\n",
		total, elapsed.Seconds(), agg.completed, agg.rejected, agg.timedOut, agg.cancelled, agg.rows, agg.writes, agg.applied)
	fmt.Printf("scanload: client   thr=%.2f q/s  p50=%s p95=%s p99=%s\n",
		float64(agg.completed)/elapsed.Seconds(),
		time.Duration(scanshare.Percentile(agg.lats, 50)).Round(time.Millisecond),
		time.Duration(scanshare.Percentile(agg.lats, 95)).Round(time.Millisecond),
		time.Duration(scanshare.Percentile(agg.lats, 99)).Round(time.Millisecond))
	agg.mu.Unlock()

	final, err := fetchStatz(client, *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanload: final statz: %v\n", err)
		os.Exit(1)
	}
	row := final.Stats
	row.Rate = rate
	fmt.Printf("scanload: server   completed=%d rejected=%d timedout=%d cancelled=%d thr=%.2f q/s  wr=%d wrthr=%.2f q/s ckpts=%d mrg95=%.1fms  p50=%.1fms p95=%.1fms p99=%.1fms qwait95=%.1fms slo%%=%.1f\n",
		row.Completed, row.Rejected, row.TimedOut, row.Cancelled,
		row.Throughput, row.Writes, row.WrQps, row.Checkpoints, row.MergeP95ms,
		row.P50ms, row.P95ms, row.P99ms, row.QWaitP95ms, row.SLOPct)
	if axes.JSONOut != "" {
		if err := scanshare.WriteServeRows(axes.JSONOut, []wire.ServeStats{row}); err != nil {
			fmt.Fprintf(os.Stderr, "scanload: -json: %v\n", err)
			os.Exit(1)
		}
	}
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

// post sends one generated request and reads its response to the end. A
// d.Cancel request is abandoned d.CancelAfter after issue — still queued
// at the server or mid-stream, the disconnect cancels it there — exactly
// like the sweep's canceller. A query answers with an NDJSON stream:
// rows are counted and the object trailer carries the authoritative
// outcome; an update answers with one UpdateResult object, which is the
// same thing without rows.
func post(c *http.Client, url string, body any, d workload.Draw) result {
	start := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if d.Cancel {
		t := time.AfterFunc(d.CancelAfter, cancel)
		defer t.Stop()
	}
	b, err := json.Marshal(body)
	if err != nil {
		return result{outcome: "encode-error"}
	}
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
