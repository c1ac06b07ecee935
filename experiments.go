package scanshare

import (
	"time"

	"repro/internal/workload"
)

// Options parameterizes the figure-regeneration experiments.
type Options struct {
	// SF is the TPC-H scale factor of the generated data (default 0.05;
	// the paper uses 30 GB — shapes are scale-free, see DESIGN.md).
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
	// Devices overrides the disk-array spindle count when nonzero (figure
	// experiments default to the paper's single device; the serve sweep
	// has its own devices axis, see ServeOptions.Devices).
	Devices int
	// StripeChunk overrides the array striping granularity in blocks when
	// nonzero; meaningful only with Devices > 1.
	StripeChunk int
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
	if o.Devices > 0 {
		cfg.Devices = o.Devices
	}
	if o.StripeChunk > 0 {
		cfg.StripeChunk = o.StripeChunk
	}
	return cfg
}

// SweepRow is one measurement of a figure's series: x-axis value, policy,
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

// runMicroPoint runs all policies at one microbenchmark configuration and
// appends rows (including the OPT row) to out.
func runMicroPoint(db *TPCHDB, cfg workload.Config, x float64, out []SweepRow) []SweepRow {
	for _, pol := range sweepPolicies {
		c := cfg
		c.Policy = pol
		c.TraceForOPT = pol == PBM
		res := workload.RunMicro(db, c)
		out = append(out, SweepRow{X: x, Policy: pol.String(),
			AvgStreamSec: res.AvgStreamSec, IOMB: mb(res.TotalIOBytes)})
		if pol == PBM {
			out = append(out, SweepRow{X: x, Policy: "OPT", IOMB: mb(res.OPTIOBytes())})
		}
	}
	return out
}

func runTPCHPoint(db *TPCHDB, cfg workload.Config, x float64, out []SweepRow) []SweepRow {
	for _, pol := range sweepPolicies {
		c := cfg
		c.Policy = pol
		c.TraceForOPT = pol == PBM
		res := workload.RunTPCH(db, c)
		out = append(out, SweepRow{X: x, Policy: pol.String(),
			AvgStreamSec: res.AvgStreamSec, IOMB: mb(res.TotalIOBytes)})
		if pol == PBM {
			out = append(out, SweepRow{X: x, Policy: "OPT", IOMB: mb(res.OPTIOBytes())})
		}
	}
	return out
}

func mb(b int64) float64 { return float64(b) / 1e6 }

// BufferFracs is the x-axis of Figures 11 and 14 (fraction of the
// accessed data volume). The paper sweeps 10–100%; the default grid
// skips the 10% corner, where simulated I/O amplification makes runs
// take tens of minutes — pass a custom Options-driven run for it.
var BufferFracs = []float64{0.2, 0.4, 0.6, 1.0}

// Bandwidths is the x-axis of Figures 12 and 15, in MB/s.
var Bandwidths = []float64{200, 400, 700, 1400, 2000}

// MicroStreams is the x-axis of Figure 13. The paper sweeps to 32;
// the default grid stops at 8 to keep the sweep fast (the recorded
// scanbench_output.txt session includes a full 1–32 run).
var MicroStreams = []int{1, 2, 4, 8}

// TPCHStreams is the x-axis of Figure 16 (the paper tops out at 24).
var TPCHStreams = []int{1, 2, 4, 8}

// Fig11 regenerates Figure 11: microbenchmark average stream time and
// total I/O volume as the buffer pool shrinks from 100% to 10% of the
// accessed data.
func Fig11(o Options) []SweepRow {
	o = o.fill()
	db := GenerateTPCH(o.SF, o.Seed)
	var out []SweepRow
	for _, frac := range BufferFracs {
		cfg := o.apply(workload.DefaultMicroConfig())
		cfg.BufferFrac = frac
		out = runMicroPoint(db, cfg, frac*100, out)
	}
	return out
}

// Fig12 regenerates Figure 12: the microbenchmark under varying I/O
// bandwidth at a 40% buffer pool.
func Fig12(o Options) []SweepRow {
	o = o.fill()
	db := GenerateTPCH(o.SF, o.Seed)
	var out []SweepRow
	for _, bw := range Bandwidths {
		cfg := o.apply(workload.DefaultMicroConfig())
		cfg.BandwidthMB = bw
		out = runMicroPoint(db, cfg, bw, out)
	}
	return out
}

// Fig13 regenerates Figure 13: the microbenchmark with 1–32 concurrent
// streams, all queries scanning 50% of the table (homogeneous streams).
func Fig13(o Options) []SweepRow {
	o = o.fill()
	db := GenerateTPCH(o.SF, o.Seed)
	var out []SweepRow
	for _, n := range MicroStreams {
		cfg := o.apply(workload.DefaultMicroConfig())
		cfg.Streams = n
		cfg.RangePercents = []int{50}
		out = runMicroPoint(db, cfg, float64(n), out)
	}
	return out
}

// Fig14 regenerates Figure 14: the TPC-H throughput run under varying
// buffer pool size.
func Fig14(o Options) []SweepRow {
	o = o.fill()
	db := GenerateTPCH(o.SF, o.Seed)
	var out []SweepRow
	for _, frac := range BufferFracs {
		cfg := o.apply(workload.DefaultTPCHConfig())
		cfg.BufferFrac = frac
		out = runTPCHPoint(db, cfg, frac*100, out)
	}
	return out
}

// Fig15 regenerates Figure 15: the TPC-H throughput run under varying
// I/O bandwidth at a 30% buffer pool.
func Fig15(o Options) []SweepRow {
	o = o.fill()
	db := GenerateTPCH(o.SF, o.Seed)
	var out []SweepRow
	for _, bw := range Bandwidths {
		cfg := o.apply(workload.DefaultTPCHConfig())
		cfg.BandwidthMB = bw
		out = runTPCHPoint(db, cfg, bw, out)
	}
	return out
}

// Fig16 regenerates Figure 16: the TPC-H throughput run with 1–24
// concurrent streams.
func Fig16(o Options) []SweepRow {
	o = o.fill()
	db := GenerateTPCH(o.SF, o.Seed)
	var out []SweepRow
	for _, n := range TPCHStreams {
		cfg := o.apply(workload.DefaultTPCHConfig())
		cfg.Streams = n
		out = runTPCHPoint(db, cfg, float64(n), out)
	}
	return out
}

// Fig17 regenerates Figure 17: the sharing-potential time series of the
// microbenchmark (volume of data wanted by exactly k concurrent scans).
func Fig17(o Options) []SharingRow {
	o = o.fill()
	db := GenerateTPCH(o.SF, o.Seed)
	cfg := o.apply(workload.DefaultMicroConfig())
	cfg.Policy = PBM
	cfg.SharingSampler = 5 * time.Millisecond
	res := workload.RunMicro(db, cfg)
	return sharingRows(res)
}

// Fig18 regenerates Figure 18: the sharing potential of the TPC-H
// throughput run.
func Fig18(o Options) []SharingRow {
	o = o.fill()
	db := GenerateTPCH(o.SF, o.Seed)
	cfg := o.apply(workload.DefaultTPCHConfig())
	cfg.Policy = PBM
	cfg.SharingSampler = 5 * time.Millisecond
	res := workload.RunTPCH(db, cfg)
	return sharingRows(res)
}

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

// AblationRow reports one policy variant at the default experiment
// point.
type AblationRow struct {
	Variant      string
	AvgStreamSec float64
	IOMB         float64
}

// Ablation runs every policy variant — the paper's three plus the
// MRU/Clock baselines and the PBM/LRU extension — at the default
// microbenchmark point.
func Ablation(o Options) []AblationRow {
	o = o.fill()
	db := GenerateTPCH(o.SF, o.Seed)
	var out []AblationRow
	for _, pol := range []Policy{LRU, MRU, Clock, PBM, PBMLRU, CScan} {
		cfg := o.apply(workload.DefaultMicroConfig())
		cfg.Policy = pol
		res := workload.RunMicro(db, cfg)
		out = append(out, AblationRow{Variant: pol.String(),
			AvgStreamSec: res.AvgStreamSec, IOMB: mb(res.TotalIOBytes)})
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
