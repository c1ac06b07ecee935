// Command tpchgen generates the TPC-H-shaped database at a given scale
// factor and prints per-table statistics: rows, columns, simulated
// on-disk bytes and pages. Useful for sizing experiments (the buffer
// pool fractions in the paper are relative to the *accessed* volume,
// which tpchgen also reports for both §4 workloads).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/tpch"
	"repro/internal/workload"
)

func main() {
	sf := flag.Float64("sf", 0.05, "scale factor")
	seed := flag.Int64("seed", 42, "generator seed")
	flag.Parse()
	run(os.Stdout, *sf, *seed)
}

// run generates the database and writes its table statistics and both
// accessed volumes to w.
func run(w io.Writer, sf float64, seed int64) {
	db := tpch.Generate(sf, seed)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "table\trows\tcols\tbytes\tpages\n")
	var totalBytes int64
	for _, t := range db.Catalog.Tables() {
		snap := t.Master()
		bytes := snap.TotalBytes(nil)
		pages := 0
		for c := range t.Schema {
			pages += len(snap.Pages(c))
		}
		totalBytes += bytes
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n", t.Name, snap.NumTuples(), len(t.Schema), bytes, pages)
	}
	fmt.Fprintf(tw, "TOTAL\t\t\t%d\t\n", totalBytes)
	tw.Flush()

	fmt.Fprintf(w, "\nmicrobenchmark accessed volume (Q1/Q6 lineitem columns): %d bytes\n",
		workload.MicroAccessedBytes(db))
	fmt.Fprintf(w, "TPC-H throughput accessed volume (22-query union):       %d bytes\n",
		workload.TPCHAccessedBytes(db))
}
