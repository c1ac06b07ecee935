package scanshare

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/tpch"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden output files")

// checkGolden compares got against the file at path, byte for byte; with
// -update it rewrites the file instead. Every golden was recorded BEFORE
// the refactor its file comment names, so regenerate ONLY for an
// intentional semantic change to the simulation.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output diverged from %s\n--- want\n%s--- got\n%s", path, want, got)
	}
}

// The golden runs share two tiny databases: uniform, and clustered on
// l_shipdate so the zone maps really skip.
var (
	goldenDB          = tpch.Generate(0.004, 11)
	goldenClusteredDB = tpch.GenerateOpt(0.004, 11, tpch.GenOptions{ClusteredShipdate: true})
)

func goldenMicroConfig() Config {
	cfg := DefaultMicroConfig()
	cfg.Streams = 4
	cfg.QueriesPerStream = 4
	cfg.ThreadsPerQuery = 2
	cfg.PerTupleCPU = 20 * time.Nanosecond
	return cfg
}

func goldenServeConfig() ServeConfig {
	cfg := DefaultServeConfig()
	cfg.Streams = 16
	cfg.QueriesPerStream = 3
	cfg.ArrivalRate = 20
	cfg.MPL = 4
	return cfg
}

// distStr and schedStr render the pre-lifecycle sched.Stats fields
// byte-identically to the %+v output the golden files were recorded
// with. Keeping the formatter explicit (instead of %+v over the whole
// struct) lets sched.Stats grow counters without invalidating goldens
// whose behavior is unchanged.
func distStr(d sched.LatencyDist) string {
	return fmt.Sprintf("{P50:%v P95:%v P99:%v Max:%v Mean:%v}", d.P50, d.P95, d.P99, d.Max, d.Mean)
}

func schedStr(s sched.Stats) string {
	return fmt.Sprintf("{Arrived:%d Completed:%d Rejected:%d MaxQueueDepth:%d Latency:%s QueueWait:%s Exec:%s SLOAttainment:%v Makespan:%v Throughput:%v}",
		s.Arrived, s.Completed, s.Rejected, s.MaxQueueDepth,
		distStr(s.Latency), distStr(s.QueueWait), distStr(s.Exec),
		s.SLOAttainment, s.Makespan, s.Throughput)
}

// diskStr renders the device counters a trajectory change shows up in.
// MaxQueueLen is left out on purpose: it measures batch-level queue
// pressure (see iosim.DeviceArray.ReadSpansOwner), not the timeline.
func diskStr(r *Result) string {
	var b strings.Builder
	for i, d := range r.DiskStats.PerDevice {
		fmt.Fprintf(&b, " d%d=%d/%d/%d/%d/%d", i, d.BytesRead, d.Requests, d.Seeks, int64(d.BusyTime), d.Skipped)
	}
	return b.String()
}

// goldenRow is one deterministic simulator run, rendered with full
// precision in the line format its file was recorded with: any change to
// the virtual-time trajectory — an extra yield, a reordered wake-up, a
// float rounding change — shifts a latency percentile, a stream time or
// an I/O counter and shows up as a diff. Fields are rendered explicitly
// so that new result columns do not invalidate recorded values.
type goldenRow struct {
	format string // line format, see render
	name   string
	db     *TPCHDB              // nil means goldenDB
	micro  func(c *Config)      // a RunMicro row: edits goldenMicroConfig
	tpch   bool                 // run the micro row's config through RunTPCH instead
	serve  func(c *ServeConfig) // a RunServe row: edits goldenServeConfig
	custom func() string        // a row that renders itself (the sweep file)
}

func (g goldenRow) render() string {
	db := g.db
	if db == nil {
		db = goldenDB
	}
	switch {
	case g.custom != nil:
		return g.custom()
	case g.micro != nil:
		cfg := goldenMicroConfig()
		g.micro(&cfg)
		run, kind := RunMicrobenchmark, "micro"
		if g.tpch {
			run, kind = RunTPCHThroughput, "tpch"
		}
		res := run(db, cfg)
		line := fmt.Sprintf("avg=%.9f max=%.9f io=%d", res.AvgStreamSec, res.MaxStreamSec, res.TotalIOBytes)
		switch g.format {
		case "micro+stats":
			return fmt.Sprintf("%s/%s %s accessed=%d buffer=%d\n%s/%s pool=%+v abm=%+v\n",
				kind, g.name, line, res.AccessedBytes, res.BufferBytes, kind, g.name, res.PoolStats, res.ABMStats)
		case "micro":
			return fmt.Sprintf("micro/%s %s\n", g.name, line)
		case "sweep":
			return fmt.Sprintf("sweep/%s %s skip=%d/%d\n", g.name, line, res.SkippedTuples, res.RequestedTuples)
		case "micro+disk":
			return fmt.Sprintf("micro/%s %s%s\n", g.name, line, diskStr(res))
		case "sharing":
			var b strings.Builder
			fmt.Fprintf(&b, "sharing/%s %s samples=%d\n", g.name, line, len(res.Sharing))
			for _, sm := range res.Sharing {
				fmt.Fprintf(&b, "sharing/%s t=%d bytes=%d/%d/%d/%d\n", g.name, int64(sm.T), sm.Bytes[0], sm.Bytes[1], sm.Bytes[2], sm.Bytes[3])
			}
			return b.String()
		}
	case g.serve != nil:
		cfg := goldenServeConfig()
		g.serve(&cfg)
		res := RunServe(db, cfg)
		line := "sched=" + schedStr(res.Sched)
		switch g.format {
		case "serve+stats":
			return fmt.Sprintf("serve/%s %s\nserve/%s io=%d pool=%+v abm=%+v\n",
				g.name, line, g.name, res.TotalIOBytes, res.PoolStats, res.ABMStats)
		case "serve":
			return fmt.Sprintf("serve/%s %s io=%d\n", g.name, line, res.TotalIOBytes)
		case "htap":
			return fmt.Sprintf("htap/%s %s io=%d skip=%d/%d\n", g.name, line, res.TotalIOBytes, res.SkippedTuples, res.RequestedTuples)
		case "serve+disk":
			return fmt.Sprintf("serve/%s %s io=%d out=%d/%d/%d%s\n", g.name, line, res.TotalIOBytes,
				res.Sched.TimedOut, res.Sched.Cancelled, res.Sched.Completed, diskStr(&res.Result))
		}
	}
	panic("golden: row " + g.name + " has no renderer for format " + g.format)
}

// perPolicy expands one row per buffer policy, named prefix+policy.
func perPolicy(format, prefix string, pols []Policy, db *TPCHDB, micro func(*Config), serve func(*ServeConfig)) []goldenRow {
	var rows []goldenRow
	for _, pol := range pols {
		pol := pol
		row := goldenRow{format: format, name: prefix + pol.String(), db: db}
		if serve != nil {
			row.serve = func(c *ServeConfig) { c.Policy = pol; serve(c) }
		} else {
			row.micro = func(c *Config) { c.Policy = pol; micro(c) }
		}
		rows = append(rows, row)
	}
	return rows
}

func plainMicro(*Config)      {}
func plainServe(*ServeConfig) {}
func sesf(c *ServeConfig)     { c.AdmissionPolicy = "sesf" }
func striped(c *Config)       { c.Policy, c.Devices, c.StripeChunk = PBM, 4, 8 }

var (
	mainPolicies = []Policy{LRU, PBM, CScan}
	scanPolicies = []Policy{PBM, CScan}
)

func concat(parts ...[]goldenRow) (rows []goldenRow) {
	for _, p := range parts {
		rows = append(rows, p...)
	}
	return rows
}

// goldens is every pinned simulator surface, one entry per file. Each of
// the first six files was generated BEFORE the refactor named beside it,
// so a passing run proves that refactor — and every one since — left the
// disabled/default path bit-identical. Their LRU/PBM serve rows (and only
// those) were re-recorded once, by the parent engine running its
// one-partition pool, in the commit before PR 19 deleted pool
// partitioning: the serving default had been an 8-way partitioned pool,
// a path that no longer exists.
var goldens = []struct {
	path string
	long bool // full tiny sweeps: skipped under -short
	rows []goldenRow
}{
	// The Runtime seam (sim vs. real-threaded execution): every counter of
	// the three main policies and the serving stack.
	{path: "internal/workload/testdata/sim_golden.txt", rows: concat(
		perPolicy("micro+stats", "", mainPolicies, nil, plainMicro, nil),
		perPolicy("serve+stats", "", mainPolicies, nil, nil, plainServe),
	)},
	// Pluggable admission policies: fifo is the historical hard-coded
	// admission queue, at the default point, queued, overloaded with a
	// bounded queue (rejections), and wide-MPL unbounded.
	{path: "internal/workload/testdata/serve_fifo_golden.txt", rows: concat(
		perPolicy("serve", "policy=", mainPolicies, nil, nil, plainServe),
		[]goldenRow{
			{format: "serve", name: "queued", serve: func(c *ServeConfig) { c.Policy, c.ArrivalRate, c.MPL = PBM, 500, 2 }},
			{format: "serve", name: "overload", serve: func(c *ServeConfig) { c.Policy, c.ArrivalRate, c.MPL, c.QueueDepth = PBM, 2000, 2, 4 }},
			{format: "serve", name: "wide", serve: func(c *ServeConfig) { c.Policy, c.MPL, c.QueueDepth = LRU, 16, -1 }},
		},
	)},
	// Zone-map data skipping, with NO scan predicates: both scan
	// operators, a non-default chunk granularity (zone-map blocks align to
	// chunks), a striped pool (read-ahead batch splitting), and sesf
	// serving, whose admission pricing became skip-aware.
	{path: "internal/workload/testdata/skip_golden.txt", rows: concat(
		perPolicy("micro", "policy=", mainPolicies, nil, plainMicro, nil),
		[]goldenRow{
			{format: "micro", name: "chunk=4096", micro: func(c *Config) { c.Policy, c.ChunkTuples = CScan, 4096 }},
			{format: "micro", name: "devices=4", micro: striped},
		},
		perPolicy("serve", "", scanPolicies, nil, nil, sesf),
	)},
	// The query lifecycle (QueryCtx threaded through the engine), with NO
	// deadline and NO cancellation: both scan operators, owner-tagged
	// device reads on a striped pool, a clustered selectivity sweep (no
	// extra rng draws when CancelRate is zero), and sesf serving
	// (admission wait points became cancellation-aware).
	{path: "internal/workload/testdata/lifecycle_golden.txt", rows: concat(
		perPolicy("micro", "policy=", mainPolicies, nil, plainMicro, nil),
		[]goldenRow{{format: "micro", name: "devices=4", micro: striped}},
		perPolicy("sweep", "", scanPolicies, goldenClusteredDB, func(c *Config) { c.Selectivities = []float64{0.05, 1} }, nil),
		perPolicy("serve", "", scanPolicies, nil, nil, sesf),
	)},
	// HTAP (pdt.Store views threaded through the engine), with NO update
	// stream: the serving stack per policy, a clustered selectivity mix
	// where the zone maps really skip (delta-aware segment walking), a
	// weighted wfq run (write admission shares these policies), and a
	// deadline+cancel run (the update stream's rng draws come after the
	// lifecycle draws without perturbing them).
	{path: "internal/workload/testdata/htap_golden.txt", rows: concat(
		perPolicy("htap", "policy=", mainPolicies, nil, nil, plainServe),
		perPolicy("htap", "skip/", scanPolicies, goldenClusteredDB, nil, func(c *ServeConfig) { c.Selectivities = []float64{0.05, 0.5, 1} }),
		[]goldenRow{
			{format: "htap", name: "wfq", serve: func(c *ServeConfig) {
				c.Policy, c.AdmissionPolicy, c.ArrivalRate = PBM, "wfq", 500
				c.Tenants, c.TenantWeights = 4, []float64{4, 2, 1, 1}
			}},
			{format: "htap", name: "lifecycle", serve: func(c *ServeConfig) { c.Policy, c.Deadline, c.CancelRate = CScan, c.SLO, 0.2 }},
		},
	)},
	// The multi-device DeviceArray: the default single-device
	// configuration is the historical one-global-FIFO-disk model, through
	// the sweep drivers (options → cells → rows) instead of one run.
	{path: "testdata/sweep_golden.txt", long: true, rows: []goldenRow{
		{custom: sweepServeRows},
		{custom: sweepFig13Rows},
	}},
	// One read path (one device queue, one exchange, one scan loop): the
	// device configurations no older file covers — the elevator on 1 and
	// 4 spindles, a tiered array, weighted-wfq admission above the
	// device queues, Cooperative Scans on a striped array, and cancelled
	// owners skipped in a device queue — with the per-device counters.
	{path: "testdata/readpath_golden.txt", rows: concat(
		perPolicy("micro+disk", "elevator/1/", scanPolicies, nil, func(c *Config) { c.IOScheduler = "elevator" }, nil),
		perPolicy("micro+disk", "elevator/4/", scanPolicies, nil, func(c *Config) { c.IOScheduler, c.Devices, c.StripeChunk = "elevator", 4, 2 }, nil),
		perPolicy("micro+disk", "fifo/4/", []Policy{CScan}, nil, func(c *Config) { c.Devices, c.StripeChunk = 4, 2 }, nil),
		perPolicy("micro+disk", "tiered/fifo/", scanPolicies, nil, func(c *Config) { c.Devices, c.StripeChunk, c.Tier = 4, 2, "tiered-rr" }, nil),
		perPolicy("micro+disk", "tiered/elevator/", scanPolicies, nil, func(c *Config) { c.IOScheduler, c.Devices, c.StripeChunk, c.Tier = "elevator", 4, 2, "tiered-rr" }, nil),
		perPolicy("serve+disk", "elevator/1/", scanPolicies, nil, nil, func(c *ServeConfig) { c.IOScheduler = "elevator" }),
		perPolicy("serve+disk", "elevator/4/", scanPolicies, nil, nil, func(c *ServeConfig) { c.IOScheduler, c.Devices, c.StripeChunk = "elevator", 4, 2 }),
		perPolicy("serve+disk", "fifo/4/", []Policy{CScan}, nil, nil, func(c *ServeConfig) { c.Devices, c.StripeChunk = 4, 2 }),
		perPolicy("serve+disk", "wfq/fifo/", scanPolicies, nil, nil, weightedWFQ("fifo", 1)),
		perPolicy("serve+disk", "wfq/elevator/1/", scanPolicies, nil, nil, weightedWFQ("elevator", 1)),
		perPolicy("serve+disk", "wfq/elevator/4/", scanPolicies, nil, nil, weightedWFQ("elevator", 4)),
		perPolicy("serve+disk", "cancel/fifo/", scanPolicies, nil, nil, cancels("fifo", 1)),
		perPolicy("serve+disk", "cancel/elevator/1/", scanPolicies, nil, nil, cancels("elevator", 1)),
		perPolicy("serve+disk", "cancel/elevator/4/", scanPolicies, nil, nil, cancels("elevator", 4)),
	)},
	// The two closed-loop paths no other file pins, recorded before the
	// figure drivers moved onto the serving engine: the TPC-H throughput
	// run's trajectory (2 streams x 4 queries of each stream's
	// permutation) and the Figure 17/18 sharing sampler's series.
	{path: "testdata/tpch_golden.txt", rows: concat(
		tpchRows(mainPolicies),
		[]goldenRow{
			{format: "sharing", name: "PBM", micro: sampled},
			{format: "sharing", name: "tpch/PBM", micro: sampled, tpch: true},
		},
	)},
}

// sampled is a PBM run with the Figure 17/18 sharing sampler on.
func sampled(c *Config) { c.Policy, c.SharingSampler = PBM, 400*time.Microsecond }

// tpchRows is one §4.2 throughput row per policy, at the TPC-H buffer
// and bandwidth defaults.
func tpchRows(pols []Policy) []goldenRow {
	rows := perPolicy("micro+stats", "", pols, nil, func(c *Config) {
		d := DefaultTPCHConfig()
		c.BufferFrac, c.BandwidthMB, c.Streams = d.BufferFrac, d.BandwidthMB, 2
	}, nil)
	for i := range rows {
		rows[i].tpch = true
	}
	return rows
}

// weightedWFQ is a saturated serving run under weighted wfq admission,
// so the device queues see four tenants' queries admitted out of arrival
// order.
func weightedWFQ(iosched string, devices int) func(*ServeConfig) {
	return func(c *ServeConfig) {
		c.IOScheduler, c.Devices, c.StripeChunk = iosched, devices, 2
		c.AdmissionPolicy, c.ArrivalRate = "wfq", 500
		c.Tenants, c.TenantWeights = 4, []float64{4, 2, 1, 1}
	}
}

// cancels is a saturated serving run whose clients abandon queries and
// whose deadline kills others mid-flight, so cancelled owners' requests
// are found in the device queues.
func cancels(iosched string, devices int) func(*ServeConfig) {
	return func(c *ServeConfig) {
		c.IOScheduler, c.Devices, c.StripeChunk = iosched, devices, 2
		c.ArrivalRate, c.MPL, c.ThreadsPerQuery = 500, 8, 2
		c.SLO, c.Deadline, c.CancelRate = 4*time.Millisecond, 2*time.Millisecond, 0.5
	}
}

func sweepServeRows() string {
	var b strings.Builder
	so := Options{
		SF: 0.01, Seed: 42, Streams: 8, QueriesPerStream: 2,
		ServeAxes: ServeAxes{
			Rates:             []float64{50},
			MPLs:              []int{2},
			Policies:          []Policy{LRU, PBM, CScan},
			AdmissionPolicies: []string{"fifo", "wfq"},
			Tenants:           2,
			TenantWeights:     []float64{2, 1},
		},
	}
	for _, r := range ServeSweep(so) {
		fmt.Fprintf(&b, "serve rate=%g mpl=%d pol=%s adm=%s done=%d rej=%d thru=%.9f p50=%.9f p95=%.9f p99=%.9f qwait=%.9f slo=%.9f io=%.9f",
			r.Rate, r.MPL, r.Policy, r.Admission, r.Completed, r.Rejected,
			r.Throughput, r.P50ms, r.P95ms, r.P99ms, r.QWaitP95ms, r.SLOPct, r.IOMB)
		for i := range r.TenantP95ms {
			fmt.Fprintf(&b, " t%d=%.9f/%.9f", i, r.TenantP95ms[i], r.TenantSLOPct[i])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

func sweepFig13Rows() string {
	var b strings.Builder
	for _, r := range Fig13(Options{SF: 0.01, Seed: 42, QueriesPerStream: 2}) {
		fmt.Fprintf(&b, "fig13 x=%g pol=%s avg=%.9f io=%.9f\n", r.X, r.Policy, r.AvgStreamSec, r.IOMB)
	}
	return b.String()
}

// TestGoldensUnchanged is the no-behavior-change regression of every
// refactor the files are named for: simulator output must be
// bit-identical to the recorded output. Regenerate one file with
// `go test -run 'Goldens/<file>' -update` ONLY for an intentional
// semantic change to the simulation.
//
// The goldens also hold the plans to never writing the pages they read:
// page memory is handed from scan to aggregate in place, so a write
// through it would move only later rows, or none. Both databases' pages
// must be what they were before the first row ran.
func TestGoldensUnchanged(t *testing.T) {
	dbs := []*TPCHDB{goldenDB, goldenClusteredDB}
	var images [][][]storage.Page
	for _, db := range dbs {
		images = append(images, dbImage(db))
	}
	defer func() {
		for i, db := range dbs {
			if !reflect.DeepEqual(dbImage(db), images[i]) {
				t.Errorf("the golden runs wrote into the pages of database %d of %d", i+1, len(dbs))
			}
		}
	}()
	for _, g := range goldens {
		g := g
		t.Run(filepath.Base(g.path), func(t *testing.T) {
			if g.long && testing.Short() {
				t.Skip("runs full tiny sweeps; skipped in -short")
			}
			var b strings.Builder
			for _, row := range g.rows {
				b.WriteString(row.render())
			}
			checkGolden(t, g.path, b.String())
		})
	}
}

// dbImage is a deep copy of the values on every page of every table of
// db, column by column.
func dbImage(db *TPCHDB) [][]storage.Page {
	var img [][]storage.Page
	for _, tb := range db.Catalog.Tables() {
		snap := db.Snapshot(tb.Name)
		for c := range tb.Schema {
			var pages []storage.Page
			for _, pg := range snap.Pages(c) {
				pages = append(pages, storage.Page{I64: slices.Clone(pg.I64), F64: slices.Clone(pg.F64), Str: slices.Clone(pg.Str), Code: slices.Clone(pg.Code)})
			}
			img = append(img, pages)
		}
	}
	return img
}
