// Command scanserved serves the scan-sharing engine over HTTP: the
// admission scheduler is the front door, query lifecycles are wired to
// their connections (disconnect cancels, request deadlines kill), and
// results stream back as NDJSON, each batch written before the next is
// pulled, so a slow client stalls its scan instead of ballooning memory.
//
// Usage:
//
//	scanserved [-addr :8080] [-policy pbm] [engine flags]
//
// Endpoints (see the wire package for the schema):
//
//	POST /v1/query   wire.QueryRequest -> NDJSON rows + wire.QueryResult
//	POST /v1/update  wire.UpdateRequest -> wire.UpdateResult (PDT write path)
//	GET  /v1/statz   wire.Statz (the live serve-table row)
//	GET  /healthz    "ok", or 503 "draining" during shutdown
//
// Engine knobs reuse scanbench's serving axes (-mpls, -devices,
// -iosched, -policies, ...; multi-valued axes contribute
// their first element). Client-mix axes (-rates, -selectivities,
// -deadline, -cancel, ...) belong to the load generator (cmd/scanload)
// and are rejected.
//
// On SIGTERM/SIGINT the server drains: admission refuses new queries
// with outcome "draining", running queries finish, the final stats
// snapshot is flushed to stdout as wire.Statz JSON, and the process
// exits 0 on a clean drain: 1 if the drain timed out or the engine's
// books did not balance once idle (server.Server.Drain).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	scanshare "repro"
	"repro/internal/server"
)

// policyMenu is the -policy values the help text offers; every one
// parses (main_test.go).
const policyMenu = "lru, mru, clock, pbm, pbm-lru, cscans"

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		policy   = flag.String("policy", "pbm", "buffer-management policy ("+policyMenu+")")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
	)
	opts := scanshare.DefaultOptions()
	opts.RegisterFlags(flag.CommandLine, true, false)
	flag.Parse()
	// A server is one configuration: it takes the first element of each
	// axis, and only values that need no sweep around them.
	err := opts.Parse()
	if err == nil {
		err = opts.Check(false)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanserved: %v\n", err)
		os.Exit(2)
	}
	// Client-mix axes shape the traffic, not the server.
	clientSide := opts.ClientSide()
	if len(clientSide) > 0 {
		fmt.Fprintf(os.Stderr, "scanserved: -%s are client-mix knobs; pass them to scanload\n", strings.Join(clientSide, "/-"))
		os.Exit(2)
	}
	pol, err := scanshare.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanserved: %v\n", err)
		os.Exit(2)
	}

	cfg := scanshare.NewServeEngineConfig(opts, opts.ServeAxes)
	cfg.Policy = pol

	fmt.Printf("scanserved: generating TPC-H sf=%g (clustered=%v)\n", opts.SF, opts.Clustered)
	db := scanshare.GenerateTPCHOpt(opts.SF, opts.Seed, scanshare.TPCHGenOptions{ClusteredShipdate: opts.Clustered})
	srv := server.New(db, server.Config{Serve: cfg, DrainTimeout: *drainFor})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanserved: %v\n", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler(), ConnContext: srv.ConnContext}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Printf("scanserved: serving %d tuples on %s (policy=%s admission=%s mpl=%d tenants=%d)\n",
		srv.Engine().NumTuples(), ln.Addr(), pol, srv.Statz().Stats.Admission,
		srv.Engine().Config().MPL, srv.Engine().TenantCount())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "scanserved: %v\n", err)
		os.Exit(1)
	case sig := <-sigCh:
		fmt.Printf("scanserved: %v: draining\n", sig)
	}

	// Drain first — admission refuses ("draining") while running and
	// queued queries finish — then close the listener and flush stats.
	drainErr := srv.Drain(context.Background())
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(shCtx)

	st := srv.Statz()
	b, _ := json.MarshalIndent(st, "", "  ")
	fmt.Println(string(b))
	srv.Close()
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "scanserved: drain: %v\n", drainErr)
		os.Exit(1)
	}
	fmt.Printf("scanserved: drained clean (%d completed, %d drain-refused)\n", st.Stats.Completed, st.DrainRejected)
}
