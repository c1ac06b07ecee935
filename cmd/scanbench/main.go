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
// the real-threaded runtime: streams are goroutines, latencies are wall
// -clock, and XChg subplans fan out on a worker pool sized by -cores.
// Figure targets always run on the simulator (reproducibility is the
// point of the figures), so -real rejects them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	scanshare "repro"
)

func main() {
	var (
		sf      = flag.Float64("sf", 0.05, "TPC-H scale factor of the generated data")
		seed    = flag.Int64("seed", 42, "workload and generator seed")
		streams = flag.Int("streams", 0, "override concurrent streams")
		queries = flag.Int("queries", 0, "override queries per stream")
		threads = flag.Int("threads", 0, "override threads per query")
		cores   = flag.Int("cores", 0, "override simulated cores")
		cpu     = flag.Duration("cpu", 0, "override per-tuple CPU cost")
		tsv     = flag.Bool("tsv", false, "emit tab-separated values")

		serve   = flag.Bool("serve", false, "run the open-loop serving sweep (arrival rate x MPL x policy x devices x admission policy)")
		compare = flag.Bool("compare", false, "run the closed-vs-open-loop comparison at one serving configuration")
		real    = flag.Bool("real", false, "run -serve/-compare on the real-threaded runtime (goroutines, wall-clock time) instead of the simulator")
	)
	// Every serving axis and knob (-rates, -mpls, -iosched, -deadline, ...)
	// is declared once in scanshare.ServeAxes — shared with cmd/scanserved
	// and cmd/scanload — instead of per-binary flag lists.
	var axes scanshare.ServeAxes
	axes.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := axes.Parse(); err != nil {
		fmt.Fprintf(os.Stderr, "scanbench: %v\n", err)
		os.Exit(2)
	}
	opts := scanshare.Options{
		SF: *sf, Seed: *seed, Streams: *streams, QueriesPerStream: *queries,
		ThreadsPerQuery: *threads, Cores: *cores, PerTupleCPU: *cpu,
		StripeChunk: axes.StripeChunk,
	}
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
			writeServeJSON(axes.JSONOut, rows)
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
	fmt.Fprintf(w, "-- average stream time (s) --\n")
	fmt.Fprintf(w, "%s", xlabel)
	for _, p := range policies {
		if p == "OPT" {
			continue // OPT has no time series (I/O-only simulation, §4)
		}
		fmt.Fprintf(w, "\t%s", p)
	}
	fmt.Fprintln(w)
	for _, x := range xs {
		fmt.Fprintf(w, "%g", x)
		for _, p := range policies {
			if p == "OPT" {
				continue
			}
			fmt.Fprintf(w, "\t%.3f", cell[x][p].AvgStreamSec)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "-- total I/O volume (MB) --\n")
	fmt.Fprintf(w, "%s", xlabel)
	for _, p := range policies {
		fmt.Fprintf(w, "\t%s", p)
	}
	fmt.Fprintln(w)
	for _, x := range xs {
		fmt.Fprintf(w, "%g", x)
		for _, p := range policies {
			fmt.Fprintf(w, "\t%.1f", cell[x][p].IOMB)
		}
		fmt.Fprintln(w)
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

// printServe renders the serving sweep: one row per (rate, MPL, policy,
// devices, I/O scheduler, tiering, admission policy, selectivity) cell with
// throughput, latency percentiles, the lifecycle outcome shares (to% =
// deadline kills, can% = client cancels, as fractions of arrivals), SLO
// attainment, the per-tenant p95/SLO breakdown, the zone-map skip rate,
// the achieved aggregate read bandwidth, and — on mixed read/write cells
// (-writefrac) — the write throughput, completed checkpoint/merge count
// and the p95 of reads overlapping a merge window; device counts,
// admission policies and selectivities of the same cell print adjacent
// so their effects read off directly.
func printServe(rows []scanshare.ServeRow, real, tsv bool) {
	fmt.Printf("== Serving sweep: open-loop arrivals, admission control, striped disk array (latencies in %s ms) ==\n", clockName(real))
	if tsv {
		fmt.Printf("rate_qps\tmpl\tpolicy\tadmission\tdevices\tiosched\ttier\tselectivity\tcompleted\trejected\ttimedout_pct\tcancelled_pct\tthroughput_qps\twrites\twr_qps\tcheckpoints\tmerge_p95_ms\tp50_ms\tp95_ms\tp99_ms\tqwait_p95_ms\tslo_pct\ttenant_p95_ms\ttenant_slo_pct\tskip_pct\tio_mb\tread_mbps\tseeks\tskew\n")
		for _, r := range rows {
			fmt.Printf("%g\t%d\t%s\t%s\t%d\t%s\t%s\t%g\t%d\t%d\t%.1f\t%.1f\t%.1f\t%d\t%.1f\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.1f\t%s\t%s\t%.1f\t%.1f\t%.1f\t%d\t%.2f\n",
				r.Rate, r.MPL, r.Policy, r.Admission, r.Devices, r.IOSched, r.Tier, r.Selectivity, r.Completed, r.Rejected, r.ToPct, r.CanPct, r.Throughput,
				r.Writes, r.WrQps, r.Checkpoints, r.MergeP95ms,
				r.P50ms, r.P95ms, r.P99ms, r.QWaitP95ms, r.SLOPct,
				joinFloats(r.TenantP95ms, "%.3f"), joinFloats(r.TenantSLOPct, "%.1f"), r.SkipPct, r.IOMB, r.ReadMBps, r.Seeks, r.Skew)
		}
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rate/stream\tMPL\tpolicy\tadmit\tdevs\tiosched\ttier\tsel\tdone\trej\tto%\tcan%\tthru (q/s)\twr q/s\tckpts\tmrg p95\tp50\tp95\tp99\tqwait p95\tSLO %\tp95/tenant\tSLO %/tenant\tskip%\tI/O MB\trd MB/s\tseeks\tskew")
	for _, r := range rows {
		fmt.Fprintf(w, "%g\t%d\t%s\t%s\t%d\t%s\t%s\t%g\t%d\t%d\t%.1f\t%.1f\t%.1f\t%.2f\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.1f\t%s\t%s\t%.1f\t%.1f\t%.1f\t%d\t%.2f\n",
			r.Rate, r.MPL, r.Policy, r.Admission, r.Devices, r.IOSched, r.Tier, r.Selectivity, r.Completed, r.Rejected, r.ToPct, r.CanPct, r.Throughput,
			r.WrQps, r.Checkpoints, r.MergeP95ms,
			r.P50ms, r.P95ms, r.P99ms, r.QWaitP95ms, r.SLOPct,
			joinFloats(r.TenantP95ms, "%.2f"), joinFloats(r.TenantSLOPct, "%.0f"), r.SkipPct, r.IOMB, r.ReadMBps, r.Seeks, r.Skew)
	}
	w.Flush()
}

// writeServeJSON writes the sweep rows to path as a JSON array in the
// wire schema (ServeRow is wire.ServeStats), the machine-readable
// counterpart of the -tsv table and the same shape scanserved's /statz
// and scanload's -json emit. CI archives it as a benchmark artifact.
func writeServeJSON(path string, rows []scanshare.ServeRow) {
	b, err := json.MarshalIndent(rows, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanbench: -json: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("# wrote %d rows to %s\n", len(rows), path)
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

// printCompare renders the closed-vs-open-loop comparison: the same
// latency table for both disciplines plus the per-percentile gap — the
// queueing delay a closed-loop benchmark's latency report omits.
func printCompare(rep scanshare.CompareReport, real, tsv bool) {
	fmt.Printf("== Closed vs open loop: same query mix, same engine, two arrival disciplines (latencies in %s ms) ==\n", clockName(real))
	if tsv {
		fmt.Printf("loop\trate_qps\tmpl\tpolicy\tadmission\tdevices\tcompleted\trejected\tthroughput_qps\tp50_ms\tp95_ms\tp99_ms\tqwait_p95_ms\tslo_pct\tio_mb\n")
		for _, e := range []struct {
			name string
			r    scanshare.ServeRow
		}{{"open", rep.Open}, {"closed", rep.Closed}} {
			fmt.Printf("%s\t%g\t%d\t%s\t%s\t%d\t%d\t%d\t%.1f\t%.3f\t%.3f\t%.3f\t%.3f\t%.1f\t%.1f\n",
				e.name, e.r.Rate, e.r.MPL, e.r.Policy, e.r.Admission, e.r.Devices, e.r.Completed, e.r.Rejected,
				e.r.Throughput, e.r.P50ms, e.r.P95ms, e.r.P99ms, e.r.QWaitP95ms, e.r.SLOPct, e.r.IOMB)
		}
		fmt.Printf("gap\t%g\t%d\t%s\t%s\t%d\t-\t-\t-\t%.3f\t%.3f\t%.3f\t-\t-\t-\n",
			rep.Open.Rate, rep.Open.MPL, rep.Open.Policy, rep.Open.Admission, rep.Open.Devices,
			rep.GapP50ms, rep.GapP95ms, rep.GapP99ms)
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "loop\tdone\trej\tthru (q/s)\tp50\tp95\tp99\tqwait p95\tSLO %\tI/O MB")
	for _, e := range []struct {
		name string
		r    scanshare.ServeRow
	}{{"open", rep.Open}, {"closed", rep.Closed}} {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\t%.1f\t%.1f\n",
			e.name, e.r.Completed, e.r.Rejected, e.r.Throughput,
			e.r.P50ms, e.r.P95ms, e.r.P99ms, e.r.QWaitP95ms, e.r.SLOPct, e.r.IOMB)
	}
	fmt.Fprintf(w, "gap\t\t\t\t%.2f\t%.2f\t%.2f\t\t\t\n", rep.GapP50ms, rep.GapP95ms, rep.GapP99ms)
	w.Flush()
	fmt.Println("# gap = open - closed latency: the queueing delay closed-loop measurement omits (coordinated omission)")
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
