package scanshare

import (
	"fmt"
	"testing"

	"repro/internal/workload"
)

// Benchmarks: one per table/figure of the paper's evaluation (§4). Each
// regenerates the corresponding experiment at a reduced scale so the
// whole suite completes quickly; `cmd/scanbench` runs the full sweeps.
// The benchmarked quantity is the wall-clock cost of simulating the
// experiment; the experiment's own metrics (virtual stream time, I/O
// volume) are reported as custom benchmark metrics.

// skipIfShort keeps `go test -short -bench .` fast: the benchmarks each
// simulate a full experiment sweep, which is the "full" half of the
// fast/full test split (see README).
func skipIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("skipping experiment-sweep benchmark in -short mode")
	}
}

// benchOptions returns reduced-scale options for benchmark runs.
func benchOptions() Options {
	return Options{
		SF:               0.008,
		Seed:             42,
		Streams:          4,
		QueriesPerStream: 6,
		ThreadsPerQuery:  4,
	}
}

func report(b *testing.B, rows []SweepRow) {
	b.Helper()
	var io, t float64
	for _, r := range rows {
		io += r.IOMB
		t += r.AvgStreamSec
	}
	b.ReportMetric(io, "sim-IO-MB")
	b.ReportMetric(t, "sim-stream-s")
}

func BenchmarkFig11MicroBufferSweep(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		report(b, Fig11(benchOptions()))
	}
}

func BenchmarkFig12MicroBandwidthSweep(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		report(b, Fig12(benchOptions()))
	}
}

func BenchmarkFig13MicroStreamSweep(b *testing.B) {
	skipIfShort(b)
	o := benchOptions()
	o.Streams = 0 // the sweep sets stream counts itself
	for i := 0; i < b.N; i++ {
		report(b, Fig13(o))
	}
}

func BenchmarkFig14TPCHBufferSweep(b *testing.B) {
	skipIfShort(b)
	o := benchOptions()
	o.QueriesPerStream = 8
	for i := 0; i < b.N; i++ {
		report(b, Fig14(o))
	}
}

func BenchmarkFig15TPCHBandwidthSweep(b *testing.B) {
	skipIfShort(b)
	o := benchOptions()
	o.QueriesPerStream = 8
	for i := 0; i < b.N; i++ {
		report(b, Fig15(o))
	}
}

func BenchmarkFig16TPCHStreamSweep(b *testing.B) {
	skipIfShort(b)
	o := benchOptions()
	o.Streams = 0
	o.QueriesPerStream = 8
	for i := 0; i < b.N; i++ {
		report(b, Fig16(o))
	}
}

func BenchmarkFig17MicroSharingPotential(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		rows := Fig17(benchOptions())
		var mbTotal float64
		for _, r := range rows {
			mbTotal += r.MB[0] + r.MB[1] + r.MB[2] + r.MB[3]
		}
		b.ReportMetric(mbTotal/float64(len(rows)+1), "avg-wanted-MB")
	}
}

func BenchmarkFig18TPCHSharingPotential(b *testing.B) {
	skipIfShort(b)
	o := benchOptions()
	o.QueriesPerStream = 8
	for i := 0; i < b.N; i++ {
		rows := Fig18(o)
		var mbTotal float64
		for _, r := range rows {
			mbTotal += r.MB[0] + r.MB[1] + r.MB[2] + r.MB[3]
		}
		b.ReportMetric(mbTotal/float64(len(rows)+1), "avg-wanted-MB")
	}
}

// BenchmarkMicroRep is one rep of the paper's §4.1 point (8 streams × 16
// Q1/Q6 queries, 8 threads per query, pool 40% of the accessed bytes) at
// sf 0.05 — what bench/'s micro-pbm and micro-cscan time, here so that a
// CPU profile of a rep needs no second module (README "Test layout").
func BenchmarkMicroRep(b *testing.B) {
	skipIfShort(b)
	db := GenerateTPCH(0.05, 7)
	for _, rep := range []struct {
		name   string
		policy Policy
	}{{"pbm", PBM}, {"cscan", CScan}} {
		cfg := workload.DefaultMicroConfig()
		cfg.Policy = rep.policy
		cfg.Seed = 42
		b.Run(rep.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := workload.RunMicro(db, cfg)
				b.ReportMetric(float64(res.TotalIOBytes)/1e6, "sim-IO-MB")
				b.ReportMetric(res.AvgStreamSec, "sim-stream-s")
			}
		})
	}
}

// Ablation benches: the buffer-management design choices side by side.

// BenchmarkAblationPolicyMicro compares every policy (including the
// MRU/Clock baselines and the PBM/LRU future-work variant) at the
// default microbenchmark point.
func BenchmarkAblationPolicyMicro(b *testing.B) {
	skipIfShort(b)
	db := GenerateTPCH(0.008, 42)
	for _, pol := range []Policy{LRU, MRU, Clock, PBM, PBMLRU, CScan} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := workload.DefaultMicroConfig()
				cfg.Policy = pol
				cfg.Streams = 4
				cfg.QueriesPerStream = 6
				cfg.ThreadsPerQuery = 4
				res := workload.RunMicro(db, cfg)
				b.ReportMetric(float64(res.TotalIOBytes)/1e6, "sim-IO-MB")
				b.ReportMetric(res.AvgStreamSec, "sim-stream-s")
			}
		})
	}
}

// BenchmarkAblationChunkSize varies the Cooperative Scans chunk
// granularity (the §2 design choice: big chunks preserve locality, small
// chunks reduce skew).
func BenchmarkAblationChunkSize(b *testing.B) {
	skipIfShort(b)
	db := GenerateTPCH(0.008, 42)
	for _, chunk := range []int64{512, 2048, 8192} {
		chunk := chunk
		b.Run(fmt.Sprintf("chunk%d", chunk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := workload.DefaultMicroConfig()
				cfg.Policy = CScan
				cfg.Streams = 4
				cfg.QueriesPerStream = 6
				cfg.ThreadsPerQuery = 4
				cfg.ChunkTuples = chunk
				res := workload.RunMicro(db, cfg)
				b.ReportMetric(float64(res.TotalIOBytes)/1e6, "sim-IO-MB")
			}
		})
	}
}

// BenchmarkAblationReadAhead sweeps the Scan operator's per-column
// read-ahead window — the knob that trades sequential locality against
// pool churn.
func BenchmarkAblationReadAhead(b *testing.B) {
	skipIfShort(b)
	db := GenerateTPCH(0.008, 42)
	for _, pol := range []Policy{LRU, PBM} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := workload.DefaultMicroConfig()
				cfg.Policy = pol
				cfg.Streams = 4
				cfg.QueriesPerStream = 6
				cfg.ThreadsPerQuery = 2
				res := workload.RunMicro(db, cfg)
				b.ReportMetric(res.AvgStreamSec, "sim-stream-s")
			}
		})
	}
}
