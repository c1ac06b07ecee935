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
	var (
		tsv = flag.Bool("tsv", false, "emit tab-separated values")

		serve   = flag.Bool("serve", false, "run the open-loop serving sweep (arrival rate x MPL x policy x devices x admission policy)")
		compare = flag.Bool("compare", false, "run the closed-vs-open-loop comparison at one serving configuration")
		real    = flag.Bool("real", false, "run -serve/-compare on the real-threaded runtime (goroutines, wall-clock time) instead of the simulator")
	)
	// The per-run flags (-sf, -seed, -streams, ...) and every serving axis
	// and knob (-rates, -mpls, -iosched, -deadline, ...) are declared once,
	// on scanshare.Options and scanshare.ServeAxes — shared with
	// cmd/scanserved and cmd/scanload — instead of per-binary flag lists.
	opts := scanshare.DefaultOptions()
	var axes scanshare.ServeAxes
	opts.RegisterFlags(flag.CommandLine, true, true)
	axes.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := axes.Parse(); err != nil {
		fmt.Fprintf(os.Stderr, "scanbench: %v\n", err)
		os.Exit(2)
	}
	opts.StripeChunk = axes.StripeChunk
	if len(axes.Devices) > 0 {
		opts.Devices = axes.Devices[0]
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
		rejectAxes(axes.ServeOnly(), "-serve")
		start := time.Now()
		printCompare(scanshare.Compare(scanshare.ServeOptions{Options: opts, ServeAxes: axes, Real: *real}), *real, *tsv)
		fmt.Printf("# compare done in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if *serve {
		start := time.Now()
		rows := scanshare.ServeSweep(scanshare.ServeOptions{Options: opts, ServeAxes: axes, Real: *real})
		printServe(rows, *real, *tsv)
		if axes.JSONOut != "" {
			if err := scanshare.WriteServeRows(axes.JSONOut, rows); err != nil {
				fmt.Fprintf(os.Stderr, "scanbench: -json: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("# wrote %d rows to %s\n", len(rows), axes.JSONOut)
		}
		fmt.Printf("# serve done in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if *real {
		fmt.Fprintln(os.Stderr, "scanbench: -real applies only to -serve/-compare; the figure targets are defined by the deterministic simulation")
		os.Exit(2)
	}
	rejectAxes(axes.ServeOnly(), "-serve")
	rejectAxes(axes.ServeOrCompareOnly(), "-serve/-compare")
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
		if opts.Devices > 1 {
			if opts.StripeChunk > 0 {
				t += fmt.Sprintf(" [devices=%d stripe=%d]", opts.Devices, opts.StripeChunk)
			} else {
				t += fmt.Sprintf(" [devices=%d]", opts.Devices)
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
// series per policy for average stream time, one for total I/O.
func printSweep(title, xlabel string, rows []scanshare.SweepRow, tsv bool) {
	fmt.Printf("== %s ==\n", title)
	if tsv {
		fmt.Printf("x\tpolicy\tavg_stream_sec\tio_mb\n")
		for _, r := range rows {
			fmt.Printf("%g\t%s\t%.4f\t%.1f\n", r.X, r.Policy, r.AvgStreamSec, r.IOMB)
		}
		return
	}
	// Pivot: rows grouped by x, one column per policy.
	policies := []string{"LRU", "CScans", "PBM", "OPT"}
	xs := make([]float64, 0)
	seen := map[float64]bool{}
	cell := map[float64]map[string]scanshare.SweepRow{}
	for _, r := range rows {
		if !seen[r.X] {
			seen[r.X] = true
			xs = append(xs, r.X)
			cell[r.X] = map[string]scanshare.SweepRow{}
		}
		cell[r.X][r.Policy] = r
	}
	sort.Float64s(xs)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, panel := range []struct {
		title, verb string
		series      []string
		value       func(scanshare.SweepRow) float64
	}{
		// OPT has no time series (I/O-only simulation, §4).
		{"-- average stream time (s) --", "\t%.3f", policies[:3], func(r scanshare.SweepRow) float64 { return r.AvgStreamSec }},
		{"-- total I/O volume (MB) --", "\t%.1f", policies, func(r scanshare.SweepRow) float64 { return r.IOMB }},
	} {
		fmt.Fprintln(w, panel.title)
		fmt.Fprint(w, xlabel)
		for _, p := range panel.series {
			fmt.Fprintf(w, "\t%s", p)
		}
		fmt.Fprintln(w)
		for _, x := range xs {
			fmt.Fprintf(w, "%g", x)
			for _, p := range panel.series {
				fmt.Fprintf(w, panel.verb, panel.value(cell[x][p]))
			}
			fmt.Fprintln(w)
		}
	}
	w.Flush()
}

func printSharing(title string, rows []scanshare.SharingRow, tsv bool) {
	fmt.Printf("== %s ==\n", title)
	if tsv {
		fmt.Printf("time_sec\tmb_1scan\tmb_2scans\tmb_3scans\tmb_4plus\n")
		for _, r := range rows {
			fmt.Printf("%.4f\t%.1f\t%.1f\t%.1f\t%.1f\n", r.TimeSec, r.MB[0], r.MB[1], r.MB[2], r.MB[3])
		}
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "time (s)\t1 scan\t2 scans\t3 scans\t>=4 scans\t(MB wanted by exactly k scans)")
	step := len(rows)/40 + 1 // cap terminal output at ~40 samples
	for i := 0; i < len(rows); i += step {
		r := rows[i]
		fmt.Fprintf(w, "%.3f\t%.1f\t%.1f\t%.1f\t%.1f\t%s\n",
			r.TimeSec, r.MB[0], r.MB[1], r.MB[2], r.MB[3], bar(r.MB))
	}
	w.Flush()
}

func printAblation(rows []scanshare.AblationRow, tsv bool) {
	fmt.Println("== Ablation: every policy variant at the default microbenchmark point ==")
	if tsv {
		fmt.Printf("variant\tavg_stream_sec\tio_mb\n")
		for _, r := range rows {
			fmt.Printf("%s\t%.4f\t%.1f\n", r.Variant, r.AvgStreamSec, r.IOMB)
		}
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "variant\tavg stream (s)\ttotal I/O (MB)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.1f\n", r.Variant, r.AvgStreamSec, r.IOMB)
	}
	w.Flush()
}

// column is one column of the serve table: its -tsv name and its
// aligned-table header (empty: -tsv only), the verb of each rendering,
// and the value it prints. A []float64 value is a per-tenant cell: the
// verb formats each element, comma-joined, index = tenant id.
type column struct {
	tsv, head     string
	tsvVerb, verb string
	value         func(scanshare.ServeRow) any
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
var serveColumns = []column{
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
func (c column) cell(r scanshare.ServeRow, tsv bool) string {
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
// the -tsv names, or aligned under the table headers (the columns that
// have one). cell renders row i's cell of a column.
func printTable(cols []column, tsv bool, n int, cell func(i int, c column) string) {
	var w io.Writer = os.Stdout
	if !tsv {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		defer tw.Flush()
		w = tw
	}
	for i := -1; i < n; i++ {
		var line []string
		for _, c := range cols {
			switch {
			case !tsv && c.head == "":
			case i >= 0:
				line = append(line, cell(i, c))
			case tsv:
				line = append(line, c.tsv)
			default:
				line = append(line, c.head)
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
	printTable(serveColumns, tsv, len(rows), func(i int, c column) string { return c.cell(rows[i], tsv) })
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
	loopColumn      = column{tsv: "loop", head: "loop"}
	compareLabels   = []string{"rate_qps", "mpl", "policy", "admission", "devices"}
	compareMeasures = []string{"completed", "rejected", "throughput_qps", "p50_ms", "p95_ms", "p99_ms", "qwait_p95_ms", "slo_pct", "io_mb"}
	compareGap      = []string{"p50_ms", "p95_ms", "p99_ms"}
)

// printCompare renders the closed-vs-open-loop comparison: the same
// latency table for both disciplines plus the per-percentile gap — the
// queueing delay a closed-loop benchmark's latency report omits.
func printCompare(rep scanshare.CompareReport, real, tsv bool) {
	fmt.Println("== Closed vs open loop: same query mix, same engine, two arrival disciplines (latencies in " + clockName(real) + " ms) ==")
	names, missing := compareMeasures, ""
	if tsv {
		names, missing = append(slices.Clone(compareLabels), compareMeasures...), "-"
	}
	cols := []column{loopColumn}
	for _, name := range names {
		cols = append(cols, serveColumns[slices.IndexFunc(serveColumns, func(c column) bool { return c.tsv == name })])
	}
	gap := rep.Open
	gap.P50ms, gap.P95ms, gap.P99ms = rep.GapP50ms, rep.GapP95ms, rep.GapP99ms
	loops := []string{"open", "closed", "gap"}
	rows := []scanshare.ServeRow{rep.Open, rep.Closed, gap}
	printTable(cols, tsv, len(rows), func(i int, c column) string {
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
