package main

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/tpch"
)

// toy is a run small enough for the whole smoke test to take seconds:
// 6000 lineitem rows, a fraction of a second per window, two queries per
// micro stream, one millisecond per layer microbenchmark.
func toy(workload string, trace bool, dir string) options {
	return options{
		workload: workload, seed: 7, seconds: 0.2, trace: trace, outDir: dir,
		sf: 0.001, benchtime: time.Millisecond, microQueries: 2,
	}
}

// TestSmoke runs every workload at toy size, timed and traced, and checks
// that each passes its own correctness checks, that a timed run measures
// every end-to-end metric, that nothing is reported under an undeclared
// name or unit, that the driver's line carries exactly the declared
// names, and that every per-layer metric is measured by some workload.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			if trace && testing.Short() {
				t.Logf("-short: skipping the traced run of %s (CPU profile, spans, layer microbenchmarks)", w.Name)
				continue
			}
			t0 := time.Now()
			res, err := runOne(spec, toy(w.Name, trace, t.TempDir()))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			t.Logf("%s trace=%v took %.2fs: %v", w.Name, trace, time.Since(t0).Seconds(), res.Phases)
			if !res.Correct {
				t.Errorf("%s trace=%v failed its checks: %v", w.Name, trace, res.Checks)
			}
			for name, m := range res.Metrics {
				measured[name] = true
				d, _ := spec.metric(name) // set panics on an undeclared name
				if m.Unit != d.Unit {
					t.Errorf("%s %s: unit %q, declared %q", w.Name, name, m.Unit, d.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s %s: value %v is not finite", w.Name, name, m.Value)
				}
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			line, err := res.driverLine()
			if err != nil {
				t.Fatal(err)
			}
			var got struct{ Metrics map[string]metric }
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: driver line has %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(got.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := got.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: driver line lacks %s", w.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s %s: driver line unit %q, declared %q", w.Name, d.Name, m.Unit, d.Unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s %s: end-to-end value %v is not positive", w.Name, d.Name, m.Value)
				}
			}
			if trace {
				if err := res.emit(t.TempDir()); err != nil {
					t.Errorf("%s: writing result and trace: %v", w.Name, err)
				}
				if len(res.spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.Name)
				}
			}
		}
	}
	if testing.Short() {
		return
	}
	for _, d := range spec.PerLayer {
		if !measured[d.Name] {
			t.Errorf("no workload measured %s", d.Name)
		}
	}
}

// TestOracleRejectsCorruptAnswers feeds the oracle its own answers, which
// must pass, and the same answers damaged, which must not. That the
// oracle agrees with the engine is what every serve-hot and serve-cold
// run checks, request by request.
func TestOracleRejectsCorruptAnswers(t *testing.T) {
	o := newOracle(tpch.Generate(0.001, 7))
	lo, hi := o.n/4, o.n/2
	revenue := o.revenue[hi] - o.revenue[lo]
	if revenue == 0 {
		t.Fatal("toy range selects nothing for q6")
	}
	if err := o.checkQ6(lo, hi, [][]any{{revenue}}); err != nil {
		t.Errorf("true q6 answer rejected: %v", err)
	}
	if o.checkQ6(lo, hi, [][]any{{revenue * 1.00001}}) == nil {
		t.Error("q6 answer off by 1e-5 accepted")
	}

	var q1 [][]any
	for _, g := range o.groups {
		if c := g.count[hi] - g.count[lo]; c > 0 {
			q1 = append(q1, []any{g.flag, g.status, g.qty[hi] - g.qty[lo], 0.0, float64(c)})
		}
	}
	if err := o.checkQ1(lo, hi, q1); err != nil {
		t.Errorf("true q1 answer rejected: %v", err)
	}
	if o.checkQ1(lo, hi, q1[1:]) == nil {
		t.Error("q1 answer missing a group accepted")
	}
	q1[0][4] = q1[0][4].(float64) + 1
	if o.checkQ1(lo, hi, q1) == nil {
		t.Error("q1 answer with a wrong count accepted")
	}

	sum := o.rowHash[hi] - o.rowHash[lo]
	if err := o.checkScan(lo, hi, hi-lo, sum); err != nil {
		t.Errorf("true scan answer rejected: %v", err)
	}
	if o.checkScan(lo, hi, hi-lo, sum+1) == nil {
		t.Error("scan answer with a wrong checksum accepted")
	}
	if o.checkScan(lo, hi, hi-lo-1, sum) == nil {
		t.Error("scan answer one row short accepted")
	}
}

// TestCompareVerdicts: an A-A pair and a host_qps drop of half the
// declared bound pass; a drop beyond the bound is a regression, and so is
// a failed share higher by more than the slack; inputs that spread wider
// than the bound are unresolved, not a regression; and on the simulator
// the smallest rise of a virtual-clock metric is a regression.
func TestCompareVerdicts(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	set := func(workload string, qps, step float64, failed int64, streamS float64) *resultSet {
		s := &resultSet{}
		for i := 0; i < 4; i++ {
			r := &result{Workload: workload, Correct: true, Attempted: 1000, Failed: failed, Metrics: map[string]metric{}}
			r.Provenance.Seed = int64(i)
			for _, d := range spec.EndToEnd {
				r.Metrics[d.Name] = metric{Value: 10 + 0.01*float64(i), Unit: d.Unit}
			}
			r.Metrics["host_qps"] = metric{Value: qps + step*float64(i), Unit: "1/s"}
			r.Metrics["model.stream_s"] = metric{Value: streamS * float64(1+i), Unit: "virtual_s"} // differs by seed
			s.Runs = append(s.Runs, r)
		}
		return s
	}
	d, _ := spec.metric("host_qps")
	base := set("serve-hot", 100, 0.1, 0, 1)
	for _, c := range []struct {
		name string
		cur  *resultSet
		want int
	}{
		{"A-A", set("serve-hot", 100, 0.1, 0, 1), 0},
		{"host_qps down by half the bound", set("serve-hot", 100*(1-d.Bound/2), 0.1, 0, 1), 0},
		{"host_qps down by the bound plus 5%", set("serve-hot", 100*(1-d.Bound-0.05), 0.1, 0, 1), 1},
		{"failed share up by 0.003, inside the slack", set("serve-hot", 100, 0.1, 3, 1), 0},
		{"failed share up by 0.01", set("serve-hot", 100, 0.1, 10, 1), 1},
		{"host_qps halved but spread over 60%: unresolved", set("serve-hot", 50, 20, 0, 1), 0},
	} {
		if code := compareSets(spec, base, c.cur); code != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, code, c.want)
		}
	}
	sim := set("micro-pbm", 40, 0.1, 0, 1.9170)
	if code := compareSets(spec, sim, set("micro-pbm", 40, 0.1, 0, 1.9170)); code != 0 {
		t.Errorf("sim A-A: exit %d, want 0", code)
	}
	if code := compareSets(spec, sim, set("micro-pbm", 40, 0.1, 0, 1.9171)); code != 1 {
		t.Errorf("sim stream time up in the last digit: exit %d, want 1", code)
	}
	if code := compareSets(spec, sim, set("micro-pbm", 40, 0.1, 1, 1.9170)); code != 1 {
		t.Errorf("sim failed share up by 0.001: exit %d, want 1", code)
	}
}

// TestQuartilesMatchPython pins the spread estimator to the values
// Python's statistics.quantiles(xs, n=4) gives, since the driver uses it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles(1,3) = %v, %v; Python gives 0.5, 3.5", q1, q3)
	}
}

// TestQuietLatencies: every latency becomes the mean of the fastest
// hundredth of its class, at least the fastest one, so a neighbour that
// slows any number of a class's requests but not all of them leaves the
// result where it was.
func TestQuietLatencies(t *testing.T) {
	var lat []float64
	var class []string
	for i := 0; i < 300; i++ { // "scan": 10, 11, 12 ms and then 297 slowed ones
		l := 0.020
		if i < 3 {
			l = 0.010 + 0.001*float64(i)
		}
		lat, class = append(lat, l), append(class, "scan")
	}
	lat, class = append(lat, 0.005, 0.002, 0.009), append(class, "q6", "q6", "q6")
	q := quietLatencies(lat, class)
	for i, c := range class {
		want := 0.011 // mean of the fastest 3 of 300
		if c == "q6" {
			want = 0.002 // a hundredth of 3 is none: the fastest one
		}
		if math.Abs(q[i]-want) > 1e-12 {
			t.Fatalf("request %d (%s): quiet latency %v, want %v", i, c, q[i], want)
		}
	}
}
