// Command bench is the repo's benchmark: five workloads over the
// simulator (micro-*) and the real serving path (serve-*), each reporting
// the end-to-end and per-layer metrics BENCHMARK.json declares. Every
// layer is measured from outside, by timing and counting calls into its
// exported functions. See README.md.
//
// One run, as the driver invokes it through run.sh:
//
//	bench --workload serve-hot --seed 7 --seconds 12 --trace 0
//
// Sets of runs and their comparison:
//
//	bench -all [-runs n] [-out dir]   every workload, timed then traced, each run a fresh process
//	bench -aa  [-runs n]              the timed set twice, compared (A-A check)
//	bench -compare old.json new.json  two sets against their bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Sizes every run shares. They are frozen: results taken at other values
// do not compare with BENCHMARK.json's. Shrink a run by lowering -seconds.
const (
	benchSF        = 0.05
	clientsN       = 2
	setupReps      = 3                      // timed runs set up this often and report the median
	mixSeed        = 42                     // micro-*: seed of RunMicro's query mix, the point the paper's figures quote
	layerBenchtime = 100 * time.Millisecond // per layer microbenchmark in a traced run
)

// options describe one run. The flags set the first five; the sizes below
// them are the constants above in every real run, and no flag reaches
// them: only the smoke test sets them, to toy values.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string

	sf           float64
	benchtime    time.Duration
	microQueries int // micro-*: queries per stream, 0 for the paper's 16
}

func main() {
	var o options
	var traceN, runs int
	var all, aa, compare bool
	flag.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 42, "seed of the TPC-H data and of every generated request list")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&traceN, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "out"), "directory for result and trace files")
	flag.BoolVar(&all, "all", false, "run every workload, timed then traced, sequentially, each run in a fresh process")
	flag.BoolVar(&aa, "aa", false, "run the timed set twice and compare the two (A-A check)")
	flag.IntVar(&runs, "runs", 1, "-all/-aa: runs per workload, seeds seed, seed+1, ...")
	flag.BoolVar(&compare, "compare", false, "compare two result sets: -compare old.json new.json")
	flag.Parse()
	o.trace = traceN != 0
	o.sf, o.benchtime = benchSF, layerBenchtime
	if runs < 1 {
		fatal(fmt.Errorf("-runs wants at least 1"))
	}

	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files"))
		}
		os.Exit(compareFiles(spec, flag.Arg(0), flag.Arg(1)))
	case aa:
		os.Exit(runAA(spec, o, runs))
	case all:
		set, err := runSet(spec, o, runs, "set", true)
		if err != nil {
			fatal(err)
		}
		if !set.allCorrect() {
			os.Exit(1)
		}
	default:
		if runtime.NumCPU() < clientsN {
			fatal(fmt.Errorf("need at least %d CPUs for the %d-client serve workloads, have %d", clientsN, clientsN, runtime.NumCPU()))
		}
		res, err := runOne(spec, o)
		if err != nil {
			fatal(err)
		}
		if err := res.emit(o.outDir); err != nil {
			fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// metric is one reported value in the driver's shape.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance is what a reader needs to judge whether two results are
// comparable.
type provenance struct {
	Seed       int64   `json:"seed"`
	MixSeed    int64   `json:"mix_seed"`
	SF         float64 `json:"sf"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	SetupReps  int     `json:"setup_reps"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	GoVersion  string  `json:"go_version"`
	GitHead    string  `json:"git_head"`
}

// result is one run of one workload.
type result struct {
	Workload   string             `json:"workload"`
	Trace      bool               `json:"trace"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Metrics    map[string]metric  `json:"metrics"`  // what this run measured, and nothing it did not
	Samples    map[string]int     `json:"samples"`  // sample count behind each median and percentile
	Checks     []string           `json:"checks"`   // failed correctness checks
	Phases     map[string]float64 `json:"phases_s"` // wall time of each phase
	Provenance provenance         `json:"provenance"`
	TraceFile  string             `json:"trace_file,omitempty"`

	spec   *benchSpec
	spans  []span
	phaseT time.Time
}

func newResult(spec *benchSpec, o options) *result {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return &result{
		Workload: o.workload,
		Trace:    o.trace,
		Metrics:  map[string]metric{},
		Samples:  map[string]int{},
		Phases:   map[string]float64{},
		Provenance: provenance{
			Seed: o.seed, MixSeed: mixSeed, SF: o.sf, Seconds: o.seconds,
			Clients: clientsN, SetupReps: setupReps,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GOGC: gogc, GoVersion: runtime.Version(), GitHead: gitHead(),
		},
		spec:   spec,
		phaseT: time.Now(),
	}
}

// set records a metric; the unit comes from BENCHMARK.json, so a name the
// spec does not declare is a bug in this program.
func (r *result) set(name string, v float64) {
	d, ok := r.spec.metric(name)
	if !ok {
		panic("bench: metric " + name + " is not declared in BENCHMARK.json")
	}
	r.Metrics[name] = metric{Value: v, Unit: d.Unit}
}

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// phase closes the phase that began at the previous call.
func (r *result) phase(name string) {
	now := time.Now()
	r.Phases[name] += now.Sub(r.phaseT).Seconds()
	r.phaseT = now
}

// runOne runs one workload once and returns its result. A timed run
// measures every end-to-end metric, plus the per-layer metrics -compare
// holds to a bound (compare.go) where they apply; a traced run measures
// the per-layer metrics of the layers the workload loads and no others.
func runOne(spec *benchSpec, o options) (*result, error) {
	if !spec.hasWorkload(o.workload) {
		return nil, fmt.Errorf("unknown workload %q (BENCHMARK.json declares %v)", o.workload, spec.workloadNames())
	}
	res := newResult(spec, o)
	var err error
	if isSim(o.workload) {
		err = runMicroWorkload(res, o)
	} else {
		err = runServeWorkload(res, o)
	}
	if err != nil {
		return nil, err
	}
	for _, d := range spec.EndToEnd {
		if m, ok := res.Metrics[d.Name]; ok == o.trace || (ok && m.Value <= 0) {
			return nil, fmt.Errorf("%s trace=%v: end-to-end metric %s measured=%v value=%v", o.workload, o.trace, d.Name, ok, m.Value)
		}
	}
	res.Correct = len(res.Checks) == 0
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	if !res.Correct && res.Failed == 0 {
		res.Failed = res.Attempted // a failed invariant voids the whole run
	}
	return res, nil
}

// isSim tells the simulator workloads, whose virtual-clock results repeat
// to the last digit, from the ones on the real runtime.
func isSim(workload string) bool { return strings.HasPrefix(workload, "micro-") }

// driverLine is the one JSON object the driver reads: exactly the
// end-to-end metrics of a timed run, exactly the per-layer metrics of a
// traced one. The driver wants every per-layer name from every workload,
// so a layer metric this workload does not measure reads 0 there, and
// only there.
func (r *result) driverLine() ([]byte, error) {
	want := r.spec.EndToEnd
	if r.Trace {
		want = r.spec.PerLayer
	}
	metrics := make(map[string]metric, len(want))
	for _, d := range want {
		metrics[d.Name] = metric{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// emit prints every metric the run measured as "workload metric value
// unit", writes the full result (and the trace, if any) under dir, and
// ends with the driver's line.
func (r *result) emit(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if r.Trace {
		r.TraceFile = filepath.Join(dir, "trace-"+r.Workload+".json")
		if err := writeJSON(r.TraceFile, map[string]any{"workload": r.Workload, "spans": r.spans}); err != nil {
			return err
		}
	}
	r.phase("report")
	if err := writeJSON(filepath.Join(dir, resultFile(r.Workload, r.Trace)), r); err != nil {
		return err
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if c, ok := r.Samples[n]; ok {
			fmt.Printf("%s %s %.6g %s (n=%d)\n", r.Workload, n, m.Value, m.Unit, c)
		} else {
			fmt.Printf("%s %s %.6g %s\n", r.Workload, n, m.Value, m.Unit)
		}
	}
	for _, c := range r.Checks {
		fmt.Printf("%s CHECK FAILED: %s\n", r.Workload, c)
	}
	line, err := r.driverLine()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func resultFile(workload string, trace bool) string {
	if trace {
		return "result-" + workload + "-traced.json"
	}
	return "result-" + workload + "-timed.json"
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitHead is the commit the build was made from, when the build recorded
// one; the driver's checkout is not a git repository.
func gitHead() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
