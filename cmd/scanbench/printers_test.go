package main

import (
	"testing"

	scanshare "repro"
)

// sweepFixture is a figure's rows out of x order, with no CScans row at
// x = 20, so the pivot sorts the x values and prints a missing cell as a
// zero.
var sweepFixture = []scanshare.SweepRow{
	{X: 100, Policy: "LRU", AvgStreamSec: 1.23456, IOMB: 812.34},
	{X: 100, Policy: "CScans", AvgStreamSec: 0.98765, IOMB: 410.05},
	{X: 100, Policy: "PBM", AvgStreamSec: 1.00049, IOMB: 433.96},
	{X: 100, Policy: "OPT", IOMB: 300.25},
	{X: 20, Policy: "LRU", AvgStreamSec: 12.5, IOMB: 4096},
	{X: 20, Policy: "PBM", AvgStreamSec: 7.0625, IOMB: 2048.75},
	{X: 20, Policy: "OPT", IOMB: 1500.04},
	{X: 40, Policy: "LRU", AvgStreamSec: 3.14159, IOMB: 1234.56},
	{X: 40, Policy: "CScans", AvgStreamSec: 2.71828, IOMB: 987.65},
	{X: 40, Policy: "PBM", AvgStreamSec: 2.5, IOMB: 1000},
	{X: 40, Policy: "OPT", IOMB: 750.5},
}

// sharingFixture is a sharing series long enough for the aligned table
// to print every second sample; the first sample wants no data, so its
// bar is empty.
func sharingFixture() []scanshare.SharingRow {
	rows := make([]scanshare.SharingRow, 45)
	for i := range rows {
		rows[i].TimeSec = float64(i) * 0.0125
		for k := range rows[i].MB {
			rows[i].MB[k] = float64(i*(k+3)%11) * 1.75
		}
	}
	return rows
}

var ablationFixture = []scanshare.SweepRow{
	{Policy: "LRU", AvgStreamSec: 1.23456, IOMB: 812.34},
	{Policy: "MRU", AvgStreamSec: 1.5, IOMB: 900},
	{Policy: "Clock", AvgStreamSec: 1.11111, IOMB: 799.99},
	{Policy: "PBM", AvgStreamSec: 0.99995, IOMB: 433.96},
	{Policy: "PBM/LRU", AvgStreamSec: 1.00049, IOMB: 440.05},
	{Policy: "CScans", AvgStreamSec: 0.98765, IOMB: 410.05},
}

// TestFigurePrinters pins the figure and ablation tables, both
// renderings, to the text their printers produced when each had its own
// format strings.
func TestFigurePrinters(t *testing.T) {
	for _, c := range []struct {
		name      string
		print     func(tsv bool)
		text, tsv string
	}{
		{"sweep", func(tsv bool) { printSweep("Figure X: fixture", "pool %", sweepFixture, tsv) }, sweepText, sweepTSV},
		{"sharing", func(tsv bool) { printSharing("Figure Y: fixture", sharingFixture(), tsv) }, sharingText, sharingTSV},
		{"ablation", func(tsv bool) { printAblation(ablationFixture, tsv) }, ablationText, ablationTSV},
	} {
		for _, tsv := range []bool{false, true} {
			want := c.text
			if tsv {
				want = c.tsv
			}
			if got := capture(t, func() { c.print(tsv) }); got != want {
				t.Errorf("%s tsv=%v:\n got %q\nwant %q", c.name, tsv, got, want)
			}
		}
	}
}

// The tables the printers produced for the fixtures while each kept its
// own text and -tsv format strings.
const (
	sweepText = `== Figure X: fixture ==
-- average stream time (s) --
pool %  LRU     CScans  PBM
20      12.500  0.000   7.062
40      3.142   2.718   2.500
100     1.235   0.988   1.000
-- total I/O volume (MB) --
pool %  LRU     CScans  PBM     OPT
20      4096.0  0.0     2048.8  1500.0
40      1234.6  987.6   1000.0  750.5
100     812.3   410.1   434.0   300.2
`
	sweepTSV = `== Figure X: fixture ==
x	policy	avg_stream_sec	io_mb
100	LRU	1.2346	812.3
100	CScans	0.9877	410.1
100	PBM	1.0005	434.0
100	OPT	0.0000	300.2
20	LRU	12.5000	4096.0
20	PBM	7.0625	2048.8
20	OPT	0.0000	1500.0
40	LRU	3.1416	1234.6
40	CScans	2.7183	987.6
40	PBM	2.5000	1000.0
40	OPT	0.0000	750.5
`
	sharingText = `== Figure Y: fixture ==
time (s)  1 scan  2 scans  3 scans  >=4 scans  (MB wanted by exactly k scans)
0.000     0.0     0.0      0.0      0.0        
0.025     10.5    14.0     17.5     1.8        +++++++++++++++++.....
0.050     1.8     8.8      15.8     3.5        ##+++++++++++++++++++.
0.075     12.2    3.5      14.0     5.2        ###++++++++++++........
0.100     3.5     17.5     12.2     7.0        ####+++++++++++++++++..
0.125     14.0    12.2     10.5     8.8        ####++++++++++++.......
0.150     5.2     7.0      8.8      10.5       ########++++++++++++....
0.175     15.8    1.8      7.0      12.2       ########+++++..........
0.200     7.0     15.8     5.2      14.0       ########++++++++++++....
0.225     17.5    10.5     3.5      15.8       ########+++++++........
0.250     8.8     5.2      1.8      17.5       ############+++++......
0.275     0.0     0.0      0.0      0.0        
0.300     10.5    14.0     17.5     1.8        +++++++++++++++++.....
0.325     1.8     8.8      15.8     3.5        ##+++++++++++++++++++.
0.350     12.2    3.5      14.0     5.2        ###++++++++++++........
0.375     3.5     17.5     12.2     7.0        ####+++++++++++++++++..
0.400     14.0    12.2     10.5     8.8        ####++++++++++++.......
0.425     5.2     7.0      8.8      10.5       ########++++++++++++....
0.450     15.8    1.8      7.0      12.2       ########+++++..........
0.475     7.0     15.8     5.2      14.0       ########++++++++++++....
0.500     17.5    10.5     3.5      15.8       ########+++++++........
0.525     8.8     5.2      1.8      17.5       ############+++++......
0.550     0.0     0.0      0.0      0.0        
`
	sharingTSV = `== Figure Y: fixture ==
time_sec	mb_1scan	mb_2scans	mb_3scans	mb_4plus
0.0000	0.0	0.0	0.0	0.0
0.0125	5.2	7.0	8.8	10.5
0.0250	10.5	14.0	17.5	1.8
0.0375	15.8	1.8	7.0	12.2
0.0500	1.8	8.8	15.8	3.5
0.0625	7.0	15.8	5.2	14.0
0.0750	12.2	3.5	14.0	5.2
0.0875	17.5	10.5	3.5	15.8
0.1000	3.5	17.5	12.2	7.0
0.1125	8.8	5.2	1.8	17.5
0.1250	14.0	12.2	10.5	8.8
0.1375	0.0	0.0	0.0	0.0
0.1500	5.2	7.0	8.8	10.5
0.1625	10.5	14.0	17.5	1.8
0.1750	15.8	1.8	7.0	12.2
0.1875	1.8	8.8	15.8	3.5
0.2000	7.0	15.8	5.2	14.0
0.2125	12.2	3.5	14.0	5.2
0.2250	17.5	10.5	3.5	15.8
0.2375	3.5	17.5	12.2	7.0
0.2500	8.8	5.2	1.8	17.5
0.2625	14.0	12.2	10.5	8.8
0.2750	0.0	0.0	0.0	0.0
0.2875	5.2	7.0	8.8	10.5
0.3000	10.5	14.0	17.5	1.8
0.3125	15.8	1.8	7.0	12.2
0.3250	1.8	8.8	15.8	3.5
0.3375	7.0	15.8	5.2	14.0
0.3500	12.2	3.5	14.0	5.2
0.3625	17.5	10.5	3.5	15.8
0.3750	3.5	17.5	12.2	7.0
0.3875	8.8	5.2	1.8	17.5
0.4000	14.0	12.2	10.5	8.8
0.4125	0.0	0.0	0.0	0.0
0.4250	5.2	7.0	8.8	10.5
0.4375	10.5	14.0	17.5	1.8
0.4500	15.8	1.8	7.0	12.2
0.4625	1.8	8.8	15.8	3.5
0.4750	7.0	15.8	5.2	14.0
0.4875	12.2	3.5	14.0	5.2
0.5000	17.5	10.5	3.5	15.8
0.5125	3.5	17.5	12.2	7.0
0.5250	8.8	5.2	1.8	17.5
0.5375	14.0	12.2	10.5	8.8
0.5500	0.0	0.0	0.0	0.0
`
	ablationText = `== Ablation: every policy variant at the default microbenchmark point ==
variant  avg stream (s)  total I/O (MB)
LRU      1.235           812.3
MRU      1.500           900.0
Clock    1.111           800.0
PBM      1.000           434.0
PBM/LRU  1.000           440.1
CScans   0.988           410.1
`
	ablationTSV = `== Ablation: every policy variant at the default microbenchmark point ==
variant	avg_stream_sec	io_mb
LRU	1.2346	812.3
MRU	1.5000	900.0
Clock	1.1111	800.0
PBM	1.0000	434.0
PBM/LRU	1.0005	440.1
CScans	0.9877	410.1
`
)
