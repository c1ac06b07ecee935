// Concurrent scans: the paper's problem statement in miniature. Eight
// query streams scan overlapping ranges of one table through a buffer
// pool half the table's size, under LRU, PBM and Cooperative Scans, and
// the example prints the resulting stream times and I/O volumes —
// reproducing the headline effect of Figure 11 at a glance.
package main

import (
	"fmt"
	"math/rand"
	"time"

	scanshare "repro"
	"repro/internal/exec"
)

const (
	rows    = 400_000
	streams = 8
	queries = 6 // per stream
)

func main() {
	fmt.Println("policy   avg stream time   total I/O")
	for _, policy := range []scanshare.Policy{scanshare.LRU, scanshare.PBM, scanshare.CScan} {
		avg, io := run(policy)
		fmt.Printf("%-8s %15v %8.1f MB\n", policy, avg.Round(time.Millisecond), float64(io)/1e6)
	}
}

// run executes the workload under one policy and reports the average
// stream completion time and total bytes read.
func run(policy scanshare.Policy) (time.Duration, int64) {
	sys := scanshare.NewSystem(scanshare.SystemConfig{
		Policy:      policy,
		BufferBytes: rows * 13 / 2, // ~half the 13 B/row table
		BandwidthMB: 300,
		PerTupleCPU: 40 * time.Nanosecond,
	})
	table, err := sys.Catalog.CreateTable("events", scanshare.Schema{
		{Name: "ts", Type: scanshare.Int64, Width: 4},
		{Name: "kind", Type: scanshare.Int64, Width: 1},
		{Name: "value", Type: scanshare.Float64, Width: 8},
	})
	if err != nil {
		panic(err)
	}
	data := scanshare.NewColumnData()
	ts := make([]int64, rows)
	kind := make([]int64, rows)
	val := make([]float64, rows)
	for i := range ts {
		ts[i] = int64(i)
		kind[i] = int64(i % 7)
		val[i] = float64(i%97) * 1.5
	}
	data.I64[0] = ts
	data.I64[1] = kind
	data.F64[2] = val
	snap, err := table.Master().Append(data)
	if err != nil {
		panic(err)
	}
	if err := snap.Commit(); err != nil {
		panic(err)
	}

	var total time.Duration
	done := 0
	sys.Run(func() {
		wg := sys.NewWaitGroup()
		for s := 0; s < streams; s++ {
			s := s
			rng := rand.New(rand.NewSource(int64(s) + 1))
			wg.Add(1)
			sys.Go("scanner", func() {
				defer wg.Done()
				for q := 0; q < queries; q++ {
					// Scan a random 50% range and aggregate value by kind.
					span := int64(rows / 2)
					start := rng.Int63n(rows - span)
					plan := &exec.HashAggr{
						Child:  sys.NewScan(snap, []int{1, 2}, []scanshare.RIDRange{{Lo: start, Hi: start + span}}, nil),
						Groups: []int{0},
						Aggs:   []exec.AggSpec{{Kind: exec.AggSum, Col: 1}},
					}
					exec.Drain(plan)
				}
				total += sys.Now()
				done++
			})
		}
		wg.Wait()
	})
	return total / time.Duration(done), sys.IOBytes()
}
