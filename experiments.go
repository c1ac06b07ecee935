package scanshare

import (
	"time"

	"repro/internal/workload"
)

// Options parameterizes one run of the experiments: a figure or the
// ablation (Fig11..Fig18, Ablation), the serving sweep (ServeSweep) or
// the closed-vs-open-loop comparison (Compare), field for field the
// scanbench command line. The figures and the ablation read the per-run
// fields above ServeAxes, the first element of its Devices axis and its
// StripeChunk knob; the serving entry points read all of it.
type Options struct {
	// SF is the TPC-H scale factor of the generated data (default 0.05;
	// the paper uses 30 GB — the shapes are scale-free).
	SF float64
	// Seed drives data generation and workload randomness.
	Seed int64
	// Streams/QueriesPerStream/ThreadsPerQuery/Cores override the §4
	// defaults when nonzero.
	Streams          int
	QueriesPerStream int
	ThreadsPerQuery  int
	Cores            int
	// PerTupleCPU overrides the calibrated per-tuple CPU cost.
	PerTupleCPU time.Duration
	// ServeAxes holds the serving axes and knobs (rates, MPLs, buffer
	// and admission policies, devices, selectivities, lifecycle and write
	// knobs, ...); unset axes run at the sweep defaults its table
	// declares, and a single configuration takes the first element of
	// each.
	ServeAxes
	// Real runs every serving cell on the real-threaded runtime
	// (goroutines and wall-clock time) instead of the deterministic
	// simulator. Latencies are then real milliseconds and runs are not
	// reproducible; the figures ignore it.
	Real bool
}

// DefaultOptions returns the experiment defaults.
func DefaultOptions() Options {
	return Options{SF: 0.05, Seed: 42}
}

func (o Options) fill() Options {
	d := DefaultOptions()
	if o.SF <= 0 {
		o.SF = d.SF
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

func (o Options) apply(cfg workload.Config) workload.Config {
	cfg.Seed = o.Seed
	if o.Streams > 0 {
		cfg.Streams = o.Streams
	}
	if o.QueriesPerStream > 0 {
		cfg.QueriesPerStream = o.QueriesPerStream
	}
	if o.ThreadsPerQuery > 0 {
		cfg.ThreadsPerQuery = o.ThreadsPerQuery
	}
	if o.Cores > 0 {
		cfg.Cores = o.Cores
	}
	if o.PerTupleCPU > 0 {
		cfg.PerTupleCPU = o.PerTupleCPU
	}
	if len(o.Devices) > 0 {
		cfg.Devices = o.Devices[0]
	}
	if o.StripeChunk > 0 {
		cfg.StripeChunk = o.StripeChunk
	}
	return cfg
}

// SweepRow is one measurement of a figure's series or of the ablation:
// x-axis value (unset in the ablation), policy (the ablation's variant),
// average stream time, and total I/O volume. OPT rows carry I/O only
// (per §4, OPT is simulated on the PBM run's reference trace).
type SweepRow struct {
	X            float64
	Policy       string
	AvgStreamSec float64
	IOMB         float64
}

// SharingRow is one time-sample of the sharing-potential analysis
// (Figures 17/18): megabytes of data currently wanted by exactly 1, 2, 3
// and >=4 concurrent scans.
type SharingRow struct {
	TimeSec float64
	MB      [4]float64
}

// sweepPolicies are the series of Figures 11–16: LRU and the two
// scan-sharing approaches; OPT is derived from the PBM trace.
var sweepPolicies = []Policy{LRU, CScan, PBM}

func mb(b int64) float64 { return float64(b) / 1e6 }

// BufferFracs is the x-axis of Figures 11 and 14 (fraction of the
// accessed data volume). The paper sweeps 10–100%; the default grid
// skips the 10% corner, where simulated I/O amplification makes runs
// take tens of minutes — pass a custom Options-driven run for it.
var BufferFracs = []float64{0.2, 0.4, 0.6, 1.0}

// Bandwidths is the x-axis of Figures 12 and 15, in MB/s.
var Bandwidths = []float64{200, 400, 700, 1400, 2000}

// MicroStreams is the x-axis of Figure 13. The paper sweeps to 32;
// the default grid stops at 8 to keep the sweep fast.
var MicroStreams = []int{1, 2, 4, 8}

// TPCHStreams is the x-axis of Figure 16 (the paper tops out at 24).
var TPCHStreams = []int{1, 2, 4, 8}

// driver returns the default configuration and the run function of the
// §4.1 microbenchmark or (tpch) the §4.2 TPC-H throughput run.
func driver(tpch bool) (workload.Config, func(*TPCHDB, workload.Config) *Result) {
	if tpch {
		return workload.DefaultTPCHConfig(), workload.RunTPCH
	}
	return workload.DefaultMicroConfig(), workload.RunMicro
}

// figureSweep is the shape of Figures 11–16: one parameter of a driver's
// default configuration moves over xs and every policy runs at each
// value (OPT is derived from the PBM run's trace). move sets the
// parameter and returns the value's place on the x-axis.
func figureSweep[X any](o Options, tpch bool, xs []X, move func(cfg *workload.Config, x X) float64) []SweepRow {
	o = o.fill()
	db := GenerateTPCH(o.SF, o.Seed)
	base, run := driver(tpch)
	var out []SweepRow
	for _, x := range xs {
		cfg := o.apply(base)
		at := move(&cfg, x)
		for _, pol := range sweepPolicies {
			cfg.Policy = pol
			cfg.TraceForOPT = pol == PBM
			res := run(db, cfg)
			out = append(out, SweepRow{X: at, Policy: pol.String(),
				AvgStreamSec: res.AvgStreamSec, IOMB: mb(res.TotalIOBytes)})
			if pol == PBM {
				out = append(out, SweepRow{X: at, Policy: "OPT", IOMB: mb(res.OPTIOBytes())})
			}
		}
	}
	return out
}

// The parameters the figures move: the pool as a fraction of the
// accessed volume (plotted in percent), the I/O bandwidth in MB/s, and
// the number of concurrent streams.
func moveBufferFrac(cfg *workload.Config, frac float64) float64 {
	cfg.BufferFrac = frac
	return frac * 100
}

func moveBandwidth(cfg *workload.Config, bw float64) float64 {
	cfg.BandwidthMB = bw
	return bw
}

func moveStreams(cfg *workload.Config, n int) float64 {
	cfg.Streams = n
	return float64(n)
}

// Fig11 regenerates Figure 11: microbenchmark average stream time and
// total I/O volume as the buffer pool shrinks from 100% to 10% of the
// accessed data.
func Fig11(o Options) []SweepRow { return figureSweep(o, false, BufferFracs, moveBufferFrac) }

// Fig12 regenerates Figure 12: the microbenchmark under varying I/O
// bandwidth at a 40% buffer pool.
func Fig12(o Options) []SweepRow { return figureSweep(o, false, Bandwidths, moveBandwidth) }

// Fig13 regenerates Figure 13: the microbenchmark with 1–32 concurrent
// streams, all queries scanning 50% of the table (homogeneous streams).
func Fig13(o Options) []SweepRow {
	return figureSweep(o, false, MicroStreams, func(cfg *workload.Config, n int) float64 {
		cfg.RangePercents = []int{50}
		return moveStreams(cfg, n)
	})
}

// Fig14 regenerates Figure 14: the TPC-H throughput run under varying
// buffer pool size.
func Fig14(o Options) []SweepRow { return figureSweep(o, true, BufferFracs, moveBufferFrac) }

// Fig15 regenerates Figure 15: the TPC-H throughput run under varying
// I/O bandwidth at a 30% buffer pool.
func Fig15(o Options) []SweepRow { return figureSweep(o, true, Bandwidths, moveBandwidth) }

// Fig16 regenerates Figure 16: the TPC-H throughput run with 1–24
// concurrent streams.
func Fig16(o Options) []SweepRow { return figureSweep(o, true, TPCHStreams, moveStreams) }

// sharingSeries is the shape of Figures 17 and 18: the sharing-potential
// time series (volume of data wanted by exactly k concurrent scans) of a
// driver's default run under PBM.
func sharingSeries(o Options, tpch bool) []SharingRow {
	o = o.fill()
	base, run := driver(tpch)
	cfg := o.apply(base)
	cfg.Policy = PBM
	cfg.SharingSampler = 5 * time.Millisecond
	return sharingRows(run(GenerateTPCH(o.SF, o.Seed), cfg))
}

// Fig17 regenerates Figure 17: the sharing potential of the
// microbenchmark.
func Fig17(o Options) []SharingRow { return sharingSeries(o, false) }

// Fig18 regenerates Figure 18: the sharing potential of the TPC-H
// throughput run.
func Fig18(o Options) []SharingRow { return sharingSeries(o, true) }

func sharingRows(res *Result) []SharingRow {
	out := make([]SharingRow, 0, len(res.Sharing))
	for _, s := range res.Sharing {
		var r SharingRow
		r.TimeSec = s.T.Seconds()
		for i, b := range s.Bytes {
			r.MB[i] = mb(b)
		}
		out = append(out, r)
	}
	return out
}

// Ablation runs every policy variant — the paper's three plus the
// MRU/Clock baselines and the PBM/LRU extension — at the default
// microbenchmark point, one row per variant (X unset).
func Ablation(o Options) []SweepRow {
	o = o.fill()
	db := GenerateTPCH(o.SF, o.Seed)
	var out []SweepRow
	for _, pol := range []Policy{LRU, MRU, Clock, PBM, PBMLRU, CScan} {
		cfg := o.apply(workload.DefaultMicroConfig())
		cfg.Policy = pol
		res := workload.RunMicro(db, cfg)
		out = append(out, SweepRow{Policy: pol.String(), AvgStreamSec: res.AvgStreamSec, IOMB: mb(res.TotalIOBytes)})
	}
	return out
}

// RunMicrobenchmark exposes the §4.1 driver directly.
func RunMicrobenchmark(db *TPCHDB, cfg Config) *Result { return workload.RunMicro(db, cfg) }

// RunTPCHThroughput exposes the §4.2 driver directly.
func RunTPCHThroughput(db *TPCHDB, cfg Config) *Result { return workload.RunTPCH(db, cfg) }

// DefaultMicroConfig re-exports the §4.1 defaults.
func DefaultMicroConfig() Config { return workload.DefaultMicroConfig() }

// DefaultTPCHConfig re-exports the §4.2 defaults.
func DefaultTPCHConfig() Config { return workload.DefaultTPCHConfig() }
