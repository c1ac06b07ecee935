// Command scanbench regenerates the tables and figures of the paper's
// evaluation (§4): Figures 11–16 (average stream time and total I/O
// volume under LRU, Cooperative Scans, PBM and OPT, sweeping buffer pool
// size, I/O bandwidth and stream count) and Figures 17–18 (sharing
// potential over time).
//
// Usage:
//
//	scanbench [flags] fig11|fig12|fig13|fig14|fig15|fig16|fig17|fig18|all
//	scanbench [-real] -serve [flags]
//	scanbench [-real] -compare [flags]
//
// Output is an aligned text table per figure; pass -tsv for
// tab-separated output suitable for plotting.
//
// The -serve mode goes beyond the paper: it drives an open-loop,
// many-client serving scenario — Poisson arrivals on N concurrent
// streams mapped onto tenants, a bounded admission queue with a
// concurrency limit (MPL) and a pluggable admission policy (-policies
// fifo,sesf,wfq) — and sweeps arrival rate x MPL x buffer policy x
// devices x admission policy, reporting throughput, latency percentiles
// (p50/p95/p99, queue-wait split), and SLO attainment, overall and per
// tenant.
//
// The -compare mode runs one serving configuration twice — open loop and
// closed loop — over the identical query mix and prints the latency gap:
// the queueing delay that closed-loop benchmarks omit (coordinated
// omission).
//
// -real switches -serve and -compare from the deterministic simulator to
// the real-threaded runtime: streams and XChg subplans are goroutines,
// latencies are wall-clock, and -cores sizes the CPU model as it does on
// the simulator.
// Figure targets always run on the simulator (reproducibility is the
// point of the figures), so -real rejects them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	scanshare "repro"
)

func main() {
	// The per-run flags (-sf, -seed, -streams, ...) and every serving axis
	// and knob (-rates, -mpls, -iosched, -deadline, ...) are declared once,
	// on scanshare.Options — shared with cmd/scanserved and cmd/scanload —
	// instead of per-binary flag lists.
	opts := scanshare.DefaultOptions()
	opts.RegisterFlags(flag.CommandLine, true, true)
	var (
		tsv = flag.Bool("tsv", false, "emit tab-separated values")

		serve   = flag.Bool("serve", false, "run the open-loop serving sweep (arrival rate x MPL x policy x devices x admission policy)")
		compare = flag.Bool("compare", false, "run the closed-vs-open-loop comparison at one serving configuration")
	)
	flag.BoolVar(&opts.Real, "real", false, "run -serve/-compare on the real-threaded runtime (goroutines, wall-clock time) instead of the simulator")
	flag.Parse()
	if err := opts.Parse(); err != nil {
		fmt.Fprintf(os.Stderr, "scanbench: %v\n", err)
		os.Exit(2)
	}
	if *serve && *compare {
		fmt.Fprintln(os.Stderr, "scanbench: -serve and -compare are mutually exclusive")
		os.Exit(2)
	}
	if *serve || *compare {
		if flag.NArg() > 0 {
			fmt.Fprintf(os.Stderr, "scanbench: -serve/-compare take no targets (got %q)\n", flag.Args())
			os.Exit(2)
		}
	}
	if *compare {
		rejectAxes(opts.ServeOnly(), "-serve")
		start := time.Now()
		open, closed := scanshare.Compare(opts)
		printCompare(open, closed, opts.Real, *tsv)
		fmt.Printf("# compare done in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if *serve {
		start := time.Now()
		rows := scanshare.ServeSweep(opts)
		printServe(rows, opts.Real, *tsv)
		if opts.JSONOut != "" {
			if err := scanshare.WriteServeRows(opts.JSONOut, rows); err != nil {
				fmt.Fprintf(os.Stderr, "scanbench: -json: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("# wrote %d rows to %s\n", len(rows), opts.JSONOut)
		}
		fmt.Printf("# serve done in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if opts.Real {
		fmt.Fprintln(os.Stderr, "scanbench: -real applies only to -serve/-compare; the figure targets are defined by the deterministic simulation")
		os.Exit(2)
	}
	rejectAxes(opts.ServeOnly(), "-serve")
	rejectAxes(opts.ServeOrCompareOnly(), "-serve/-compare")
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: scanbench [flags] fig11..fig18|all  or  scanbench [-real] -serve|-compare [flags]")
		flag.Usage()
		os.Exit(2)
	}
	targets := flag.Args()
	if len(targets) == 1 && targets[0] == "all" {
		targets = []string{"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "ablation"}
	}
	// Non-default device configurations annotate the figure titles; the
	// default single-device output stays byte-identical to the historical
	// tables.
	figTitle := func(t string) string {
		if len(opts.Devices) > 0 && opts.Devices[0] > 1 {
			if opts.StripeChunk > 0 {
				t += fmt.Sprintf(" [devices=%d stripe=%d]", opts.Devices[0], opts.StripeChunk)
			} else {
				t += fmt.Sprintf(" [devices=%d]", opts.Devices[0])
			}
		}
		return t
	}
	for _, target := range targets {
		start := time.Now()
		switch target {
		case "fig11":
			printSweep(figTitle("Figure 11: microbenchmark, varying buffer pool size"), "pool %", scanshare.Fig11(opts), *tsv)
		case "fig12":
			printSweep(figTitle("Figure 12: microbenchmark, varying I/O bandwidth"), "MB/s", scanshare.Fig12(opts), *tsv)
		case "fig13":
			printSweep(figTitle("Figure 13: microbenchmark, varying number of streams"), "streams", scanshare.Fig13(opts), *tsv)
		case "fig14":
			printSweep(figTitle("Figure 14: TPC-H throughput, varying buffer pool size"), "pool %", scanshare.Fig14(opts), *tsv)
		case "fig15":
			printSweep(figTitle("Figure 15: TPC-H throughput, varying I/O bandwidth"), "MB/s", scanshare.Fig15(opts), *tsv)
		case "fig16":
			printSweep(figTitle("Figure 16: TPC-H throughput, varying number of streams"), "streams", scanshare.Fig16(opts), *tsv)
		case "fig17":
			printSharing(figTitle("Figure 17: sharing potential, microbenchmark"), scanshare.Fig17(opts), *tsv)
		case "fig18":
			printSharing(figTitle("Figure 18: sharing potential, TPC-H throughput"), scanshare.Fig18(opts), *tsv)
		case "ablation":
			printAblation(scanshare.Ablation(opts), *tsv)
		default:
			fmt.Fprintf(os.Stderr, "unknown target %q\n", target)
			os.Exit(2)
		}
		fmt.Printf("# %s done in %v\n\n", target, time.Since(start).Round(time.Millisecond))
	}
}

// printSweep renders the two panels of a Figures-11..16-style plot: one
// series per policy for average stream time, one for total I/O; -tsv
// prints the rows as they are.
func printSweep(title, xlabel string, rows []scanshare.SweepRow, tsv bool) {
	fmt.Printf("== %s ==\n", title)
	if tsv {
		printTable(sweepColumns, tsv, len(rows), func(i int, c column[scanshare.SweepRow]) string { return c.cell(rows[i], tsv) })
		return
	}
	// Pivot: rows grouped by x, one table per panel, one column per policy.
	policies := []string{"LRU", "CScans", "PBM", "OPT"}
	var xs []float64
	cell := map[float64]map[string]scanshare.SweepRow{}
	for _, r := range rows {
		if cell[r.X] == nil {
			xs = append(xs, r.X)
			cell[r.X] = map[string]scanshare.SweepRow{}
		}
		cell[r.X][r.Policy] = r
	}
	sort.Float64s(xs)
	for _, panel := range []struct {
		title  string
		series []string
		column[scanshare.SweepRow]
	}{
		// OPT has no time series (I/O-only simulation, §4).
		{"-- average stream time (s) --", policies[:3], sweepColumns[2]},
		{"-- total I/O volume (MB) --", policies, sweepColumns[3]},
	} {
		fmt.Println(panel.title)
		cols := []column[float64]{{head: xlabel, verb: "%g", value: func(x float64) any { return x }}}
		for _, p := range panel.series {
			p, value := p, panel.value
			cols = append(cols, column[float64]{head: p, verb: panel.verb, value: func(x float64) any { return value(cell[x][p]) }})
		}
		printTable(cols, tsv, len(xs), func(i int, c column[float64]) string { return c.cell(xs[i], tsv) })
	}
}

// sweepColumns is a figure's -tsv table; its measures are the
// ablation's, in both renderings.
var sweepColumns = []column[scanshare.SweepRow]{
	{"x", "", "%g", "", func(r scanshare.SweepRow) any { return r.X }},
	{"policy", "", "%s", "", func(r scanshare.SweepRow) any { return r.Policy }},
	{"avg_stream_sec", "avg stream (s)", "%.4f", "%.3f", func(r scanshare.SweepRow) any { return r.AvgStreamSec }},
	{"io_mb", "total I/O (MB)", "%.1f", "%.1f", func(r scanshare.SweepRow) any { return r.IOMB }},
}

// sharingColumns is the Figures 17/18 table: the aligned rendering adds
// a bar of each sample's shares.
var sharingColumns = []column[scanshare.SharingRow]{
	{"time_sec", "time (s)", "%.4f", "%.3f", func(r scanshare.SharingRow) any { return r.TimeSec }},
	{"mb_1scan", "1 scan", "%.1f", "%.1f", func(r scanshare.SharingRow) any { return r.MB[0] }},
	{"mb_2scans", "2 scans", "%.1f", "%.1f", func(r scanshare.SharingRow) any { return r.MB[1] }},
	{"mb_3scans", "3 scans", "%.1f", "%.1f", func(r scanshare.SharingRow) any { return r.MB[2] }},
	{"mb_4plus", ">=4 scans", "%.1f", "%.1f", func(r scanshare.SharingRow) any { return r.MB[3] }},
	{"", "(MB wanted by exactly k scans)", "", "%s", func(r scanshare.SharingRow) any { return bar(r.MB) }},
}

func printSharing(title string, rows []scanshare.SharingRow, tsv bool) {
	fmt.Printf("== %s ==\n", title)
	step := 1
	if !tsv {
		step = len(rows)/40 + 1 // cap terminal output at ~40 samples
	}
	printTable(sharingColumns, tsv, (len(rows)+step-1)/step, func(i int, c column[scanshare.SharingRow]) string { return c.cell(rows[i*step], tsv) })
}

func printAblation(rows []scanshare.SweepRow, tsv bool) {
	fmt.Println("== Ablation: every policy variant at the default microbenchmark point ==")
	cols := append([]column[scanshare.SweepRow]{{"variant", "variant", "%s", "%s", sweepColumns[1].value}}, sweepColumns[2:]...)
	printTable(cols, tsv, len(rows), func(i int, c column[scanshare.SweepRow]) string { return c.cell(rows[i], tsv) })
}

// column is one column of a table of R rows: its -tsv name (empty:
// aligned table only) and its aligned-table header (empty: -tsv only),
// the verb of each rendering, and the value it prints. A []float64 value
// is a per-tenant cell: the verb formats each element, comma-joined,
// index = tenant id.
type column[R any] struct {
	tsv, head     string
	tsvVerb, verb string
	value         func(R) any
}

// serveColumns is the serve table, both renderings: the axis labels of
// a (rate, MPL, policy, admission policy, devices, I/O scheduler,
// tiering, selectivity) cell, then throughput, the lifecycle outcome
// shares (to% = deadline kills, can% = client cancels, as fractions of
// arrivals), on mixed read/write cells (-writefrac) the write
// throughput, completed checkpoint/merge count and the p95 of reads
// overlapping a merge window, the latency percentiles, SLO attainment
// overall and per tenant, the zone-map skip rate, and the device
// counters. printServe prints all of it and printCompare a named subset.
var serveColumns = []column[scanshare.ServeRow]{
	{"rate_qps", "rate/stream", "%g", "%g", func(r scanshare.ServeRow) any { return r.Rate }},
	{"mpl", "MPL", "%d", "%d", func(r scanshare.ServeRow) any { return r.MPL }},
	{"policy", "policy", "%s", "%s", func(r scanshare.ServeRow) any { return r.Policy }},
	{"admission", "admit", "%s", "%s", func(r scanshare.ServeRow) any { return r.Admission }},
	{"devices", "devs", "%d", "%d", func(r scanshare.ServeRow) any { return r.Devices }},
	{"iosched", "iosched", "%s", "%s", func(r scanshare.ServeRow) any { return r.IOSched }},
	{"tier", "tier", "%s", "%s", func(r scanshare.ServeRow) any { return r.Tier }},
	{"selectivity", "sel", "%g", "%g", func(r scanshare.ServeRow) any { return r.Selectivity }},
	{"completed", "done", "%d", "%d", func(r scanshare.ServeRow) any { return r.Completed }},
	{"rejected", "rej", "%d", "%d", func(r scanshare.ServeRow) any { return r.Rejected }},
	{"timedout_pct", "to%", "%.1f", "%.1f", func(r scanshare.ServeRow) any { return r.ToPct }},
	{"cancelled_pct", "can%", "%.1f", "%.1f", func(r scanshare.ServeRow) any { return r.CanPct }},
	{"throughput_qps", "thru (q/s)", "%.1f", "%.1f", func(r scanshare.ServeRow) any { return r.Throughput }},
	{"writes", "", "%d", "", func(r scanshare.ServeRow) any { return r.Writes }},
	{"wr_qps", "wr q/s", "%.1f", "%.2f", func(r scanshare.ServeRow) any { return r.WrQps }},
	{"checkpoints", "ckpts", "%d", "%d", func(r scanshare.ServeRow) any { return r.Checkpoints }},
	{"merge_p95_ms", "mrg p95", "%.3f", "%.2f", func(r scanshare.ServeRow) any { return r.MergeP95ms }},
	{"p50_ms", "p50", "%.3f", "%.2f", func(r scanshare.ServeRow) any { return r.P50ms }},
	{"p95_ms", "p95", "%.3f", "%.2f", func(r scanshare.ServeRow) any { return r.P95ms }},
	{"p99_ms", "p99", "%.3f", "%.2f", func(r scanshare.ServeRow) any { return r.P99ms }},
	{"qwait_p95_ms", "qwait p95", "%.3f", "%.2f", func(r scanshare.ServeRow) any { return r.QWaitP95ms }},
	{"slo_pct", "SLO %", "%.1f", "%.1f", func(r scanshare.ServeRow) any { return r.SLOPct }},
	{"tenant_p95_ms", "p95/tenant", "%.3f", "%.2f", func(r scanshare.ServeRow) any { return r.TenantP95ms }},
	{"tenant_slo_pct", "SLO %/tenant", "%.1f", "%.0f", func(r scanshare.ServeRow) any { return r.TenantSLOPct }},
	{"skip_pct", "skip%", "%.1f", "%.1f", func(r scanshare.ServeRow) any { return r.SkipPct }},
	{"io_mb", "I/O MB", "%.1f", "%.1f", func(r scanshare.ServeRow) any { return r.IOMB }},
	{"read_mbps", "rd MB/s", "%.1f", "%.1f", func(r scanshare.ServeRow) any { return r.ReadMBps }},
	{"seeks", "seeks", "%d", "%d", func(r scanshare.ServeRow) any { return r.Seeks }},
	{"skew", "skew", "%.2f", "%.2f", func(r scanshare.ServeRow) any { return r.Skew }},
}

// cell renders the column's value of r for one of the two renderings.
func (c column[R]) cell(r R, tsv bool) string {
	verb := c.verb
	if tsv {
		verb = c.tsvVerb
	}
	v := c.value(r)
	if vs, ok := v.([]float64); ok {
		return joinFloats(vs, verb)
	}
	return fmt.Sprintf(verb, v)
}

// printTable prints a header and n rows under cols: tab-separated under
// the -tsv names, or aligned under the table headers, each rendering
// only the columns that have a name in it. cell renders row i's cell of
// a column.
func printTable[R any](cols []column[R], tsv bool, n int, cell func(i int, c column[R]) string) {
	var w io.Writer = os.Stdout
	if !tsv {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		defer tw.Flush()
		w = tw
	}
	for i := -1; i < n; i++ {
		var line []string
		for _, c := range cols {
			name := c.head
			if tsv {
				name = c.tsv
			}
			switch {
			case name == "":
			case i >= 0:
				line = append(line, cell(i, c))
			default:
				line = append(line, name)
			}
		}
		fmt.Fprintln(w, strings.Join(line, "\t"))
	}
}

// printServe renders the serving sweep, one row per cell; device counts,
// admission policies and selectivities of the same cell print adjacent
// so their effects read off directly.
func printServe(rows []scanshare.ServeRow, real, tsv bool) {
	fmt.Println("== Serving sweep: open-loop arrivals, admission control, striped disk array (latencies in " + clockName(real) + " ms) ==")
	printTable(serveColumns, tsv, len(rows), func(i int, c column[scanshare.ServeRow]) string { return c.cell(rows[i], tsv) })
}

// joinFloats renders one compact comma-joined cell (index = tenant id)
// for the per-tenant table columns.
func joinFloats(vs []float64, format string) string {
	if len(vs) == 0 {
		return "-"
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf(format, v)
	}
	return strings.Join(parts, ",")
}

func clockName(real bool) string {
	if real {
		return "wall-clock"
	}
	return "virtual"
}

// The serve columns -compare prints after its loop column, by -tsv
// name. compareLabels are the axis labels of the one configuration both
// rows ran: -tsv repeats them on every row, the aligned table leaves
// them to the command line. Of compareMeasures the gap row carries only
// the latency percentiles of compareGap.
var (
	loopColumn      = column[scanshare.ServeRow]{tsv: "loop", head: "loop"}
	compareLabels   = []string{"rate_qps", "mpl", "policy", "admission", "devices"}
	compareMeasures = []string{"completed", "rejected", "throughput_qps", "p50_ms", "p95_ms", "p99_ms", "qwait_p95_ms", "slo_pct", "io_mb"}
	compareGap      = []string{"p50_ms", "p95_ms", "p99_ms"}
)

// printCompare renders the closed-vs-open-loop comparison: the same
// latency table for both disciplines plus the per-percentile gap — the
// queueing delay a closed-loop benchmark's latency report omits.
func printCompare(open, closed scanshare.ServeRow, real, tsv bool) {
	fmt.Println("== Closed vs open loop: same query mix, same engine, two arrival disciplines (latencies in " + clockName(real) + " ms) ==")
	names, missing := compareMeasures, ""
	if tsv {
		names, missing = append(slices.Clone(compareLabels), compareMeasures...), "-"
	}
	cols := []column[scanshare.ServeRow]{loopColumn}
	for _, name := range names {
		cols = append(cols, serveColumns[slices.IndexFunc(serveColumns, func(c column[scanshare.ServeRow]) bool { return c.tsv == name })])
	}
	gap := open
	gap.P50ms, gap.P95ms, gap.P99ms = open.P50ms-closed.P50ms, open.P95ms-closed.P95ms, open.P99ms-closed.P99ms
	loops := []string{"open", "closed", "gap"}
	rows := []scanshare.ServeRow{open, closed, gap}
	printTable(cols, tsv, len(rows), func(i int, c column[scanshare.ServeRow]) string {
		switch {
		case c.value == nil:
			return loops[i]
		case loops[i] == "gap" && slices.Contains(compareMeasures, c.tsv) && !slices.Contains(compareGap, c.tsv):
			return missing
		}
		return c.cell(rows[i], tsv)
	})
	if !tsv {
		fmt.Println("# gap = open - closed latency: the queueing delay closed-loop measurement omits (coordinated omission)")
	}
}

// rejectAxes exits when a mode was given flags outside its scope: bad
// is the offending flag-name list a ServeAxes scope helper returned,
// modes the flags' legal home. Central scoping means a new serve flag
// is rejected (not silently ignored) everywhere else by default.
func rejectAxes(bad []string, modes string) {
	if len(bad) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "scanbench: -%s apply only to %s\n", strings.Join(bad, "/-"), modes)
	os.Exit(2)
}

// bar renders a tiny stacked area impression: one char per ~sixteenth of
// the max volume, '.'=1 scan, '+'=2-3 scans, '#'=4+.
func bar(mb [4]float64) string {
	total := mb[0] + mb[1] + mb[2] + mb[3]
	if total <= 0 {
		return ""
	}
	const width = 24
	n := func(v float64) int { return int(v / total * width) }
	return strings.Repeat("#", n(mb[3])) + strings.Repeat("+", n(mb[1]+mb[2])) + strings.Repeat(".", n(mb[0]))
}
