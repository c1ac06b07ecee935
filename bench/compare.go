package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// resultSet is the file -all writes and -compare reads: every run of one
// pass over the workloads. A benchmark definition claims no gain, so the
// claim is always null; a later change that claims one says so in its own
// report, not here.
type resultSet struct {
	Provenance provenance `json:"provenance"`
	Runs       []*result  `json:"runs"`
	WallS      float64    `json:"wall_s"`
	Claim      *string    `json:"claim"`
}

func (s *resultSet) allCorrect() bool {
	for _, r := range s.Runs {
		if !r.Correct {
			return false
		}
	}
	return true
}

// values collects one metric's value from every run of a workload that
// measured it, keyed by the run's seed: from the timed runs if any did,
// else from the traced ones, never a mix of the two.
func (s *resultSet) values(workload, metric string) map[int64]float64 {
	timed, traced := map[int64]float64{}, map[int64]float64{}
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			if r.Trace {
				traced[r.Provenance.Seed] = m.Value
			} else {
				timed[r.Provenance.Seed] = m.Value
			}
		}
	}
	if len(timed) > 0 {
		return timed
	}
	return traced
}

func flat(m map[int64]float64) []float64 {
	xs := make([]float64, 0, len(m))
	for _, v := range m {
		xs = append(xs, v)
	}
	return xs
}

func (s *resultSet) failedShare(workload string) float64 {
	var failed, attempted int64
	for _, r := range s.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// runSet runs every workload `runs` times timed (seeds seed, seed+1, ...)
// and, if traced is set, once more traced, one fresh process per run and
// never two at once, and writes the set to <out>/<label>.json.
func runSet(spec *benchSpec, o options, runs int, label string, traced bool) (*resultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	set := &resultSet{}
	for _, w := range spec.Workloads {
		// Run number `runs` is the traced one, on the first seed.
		for i := 0; i < runs || (i == runs && traced); i++ {
			trace, traceArg := i == runs, "0"
			if trace {
				traceArg = "1"
			}
			seed := o.seed + int64(i%runs)
			dir := filepath.Join(o.outDir, label, fmt.Sprintf("%s-%d", w.Name, i))
			cmd := exec.Command(self,
				"-workload", w.Name,
				"-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-trace", traceArg,
				"-out", dir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			b, err := os.ReadFile(filepath.Join(dir, resultFile(w.Name, trace)))
			if err != nil {
				return nil, fmt.Errorf("%s run %d left no result (%v): %w", w.Name, i, runErr, err)
			}
			var r result
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, fmt.Errorf("%s run %d: %w", w.Name, i, err)
			}
			set.Runs = append(set.Runs, &r)
		}
	}
	if len(set.Runs) > 0 {
		set.Provenance = set.Runs[0].Provenance
	}
	set.WallS = time.Since(start).Seconds()
	path := filepath.Join(o.outDir, label+".json")
	if err := writeJSON(path, set); err != nil {
		return nil, err
	}
	fmt.Printf("# %d runs in %.0fs, set written to %s\n", len(set.Runs), set.WallS, path)
	return set, nil
}

// runAA is the A-A acceptance check: the timed set twice on the same
// code, compared like any old/new pair. It must report no regression.
func runAA(spec *benchSpec, o options, runs int) int {
	a, err := runSet(spec, o, runs, "aa-first", false)
	if err != nil {
		fatal(err)
	}
	b, err := runSet(spec, o, runs, "aa-second", false)
	if err != nil {
		fatal(err)
	}
	return compareSets(spec, a, b)
}

func compareFiles(spec *benchSpec, oldPath, newPath string) int {
	var sets [2]resultSet
	for i, p := range []string{oldPath, newPath} {
		b, err := os.ReadFile(p)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(b, &sets[i]); err != nil {
			fatal(fmt.Errorf("%s: %w", p, err))
		}
	}
	return compareSets(spec, &sets[0], &sets[1])
}

// bounded are the per-layer metrics a comparison holds to a bound like an
// end-to-end one. They are what a user of the system sees on some
// workloads only, or read 0 on one, and the driver's end-to-end list
// takes neither; BENCHMARK.json's per-layer entries carry no bound, so the
// rule lives here: on the real runtime each gets host_qps's bound, and on
// the simulator the model.* ones, which repeat to the last digit, get
// none at all. Timed runs measure them where they apply.
var bounded = []string{
	"host.p95_ms", "host.overhead_ms", "pdt.write_qps",
	"model.io_mb", "model.stream_s", "model.io_over_opt",
}

// failedShareSlack is how much the failed share may rise on the real
// runtime before it is a regression; on the simulator, not at all.
const failedShareSlack = 0.005

// compared lists the metrics a comparison covers on one workload, each
// with its bound.
func compared(spec *benchSpec, workload string) []metricDecl {
	list := append([]metricDecl(nil), spec.EndToEnd...)
	host, _ := spec.metric("host_qps")
	for _, name := range bounded {
		d, ok := spec.metric(name)
		if !ok {
			panic("bench: bounded metric " + name + " is not declared in BENCHMARK.json")
		}
		d.Bound = host.Bound
		if isSim(workload) && strings.HasPrefix(name, "model.") {
			d.Bound = 0
		}
		list = append(list, d)
	}
	return list
}

// exactVerdict compares, seed by seed, a metric that repeats exactly.
func exactVerdict(a, b map[int64]float64, sign float64) string {
	verdict := "unresolved" // until a seed both sets ran says otherwise
	for seed, va := range a {
		vb, ok := b[seed]
		switch {
		case !ok:
		case sign*(vb-va) > 0:
			return "REGRESSION"
		default:
			verdict = "ok"
		}
	}
	return verdict
}

// compareSets prints, per workload and compared metric, the old and new
// medians, the change in the metric's worse direction, and a verdict
// against the bound. A metric whose run-to-run spread (quartile distance
// over median, on either side) exceeds its bound is unresolved: the
// inputs cannot tell a change from noise, so it is neither a regression
// nor unchanged. A metric with no bound at all repeats exactly for a
// given seed, so it is compared seed by seed and the smallest worsening
// on any seed is a regression. The exit code is 1 on a regression, on a
// higher failed share or on an incorrect run.
func compareSets(spec *benchSpec, old, cur *resultSet) int {
	code := 0
	fmt.Printf("%-12s %-18s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "old", "new", "worse%", "spread%", "bound%", "verdict")
	for _, w := range spec.Workloads {
		for _, d := range compared(spec, w.Name) {
			a, b := old.values(w.Name, d.Name), cur.values(w.Name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			sign := 1.0
			if d.Better == "higher" {
				sign = -1
			}
			ma, mb := median(flat(a)), median(flat(b))
			worse := sign * (mb - ma) / math.Abs(ma)
			sp := math.Max(spread(flat(a)), spread(flat(b)))
			verdict := "ok"
			switch {
			case d.Bound == 0:
				sp, verdict = 0, exactVerdict(a, b, sign)
			case sp > d.Bound && d.Name != "setup_s":
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "REGRESSION"
			}
			if verdict == "REGRESSION" {
				code = 1
			}
			fmt.Printf("%-12s %-18s %12.5g %12.5g %+8.2f %7.2f %7.1f  %s\n", w.Name, d.Name, ma, mb, 100*worse, 100*sp, 100*d.Bound, verdict)
		}
		slack := failedShareSlack
		if isSim(w.Name) {
			slack = 0
		}
		if fa, fb := old.failedShare(w.Name), cur.failedShare(w.Name); fb > fa+slack {
			fmt.Printf("%-12s %-18s %12.5g %12.5g  REGRESSION: more requests failed\n", w.Name, "failed_share", fa, fb)
			code = 1
		}
	}
	if !old.allCorrect() || !cur.allCorrect() {
		fmt.Println("a run failed its correctness checks")
		code = 1
	}
	return code
}
