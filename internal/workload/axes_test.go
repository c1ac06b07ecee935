package workload

import (
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/wire"
)

// parseAxes runs one simulated command line through the full
// RegisterFlags + flag parse + Parse path.
func parseAxes(t *testing.T, args ...string) (*ServeAxes, error) {
	t.Helper()
	var a ServeAxes
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	a.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("flag parse: %v", err)
	}
	return &a, a.Parse()
}

func TestServeAxesParse(t *testing.T) {
	a, err := parseAxes(t,
		"-rates", "1,5.5", "-mpls", "8, 32",
		"-iosched", "fifo,elevator", "-tiers", "tiered-temp",
		"-policies", "fifo,wfq", "-weights", "2,1",
		"-selectivities", "0.1,1", "-slo", "100ms", "-deadline", "1s",
		"-cancel", "0.25", "-tenants", "2", "-queue", "16",
	)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(a.Rates) != 2 || a.Rates[1] != 5.5 {
		t.Errorf("Rates = %v", a.Rates)
	}
	if len(a.MPLs) != 2 || a.MPLs[0] != 8 || a.MPLs[1] != 32 {
		t.Errorf("MPLs = %v (whitespace should be trimmed)", a.MPLs)
	}
	if len(a.IOSchedulers) != 2 || a.IOSchedulers[1] != "elevator" {
		t.Errorf("IOSchedulers = %v", a.IOSchedulers)
	}
	if len(a.AdmissionPolicies) != 2 || a.AdmissionPolicies[1] != "wfq" {
		t.Errorf("AdmissionPolicies = %v", a.AdmissionPolicies)
	}
	if a.SLO != 100*time.Millisecond || a.Deadline != time.Second || a.CancelRate != 0.25 {
		t.Errorf("SLO/Deadline/CancelRate = %v/%v/%v", a.SLO, a.Deadline, a.CancelRate)
	}
}

func TestServeAxesParseErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-rates", "1,x"}, `-rates: bad element "x": not a number`},
		{[]string{"-mpls", "0"}, `-mpls: bad element "0": must be positive`},
		{[]string{"-selectivities", "1.5"}, "-selectivities: bad element 1.5: must be in (0,1]"},
		{[]string{"-iosched", "lifo"}, `-iosched: bad element "lifo" (valid: fifo, elevator)`},
		{[]string{"-tiers", "warm"}, `-tiers: bad element "warm"`},
		{[]string{"-policies", "bogus"}, `unknown admission policy "bogus"`},
		{[]string{"-cancel", "1.5"}, "-cancel: bad value 1.5: must be in [0,1]"},
		{[]string{"-deadline", "-1s"}, "-deadline: bad value -1s"},
		{[]string{"-tenants", "-1"}, "-tenants: bad value -1"},
		{[]string{"-stripe", "-4"}, "-stripe: bad value -4"},
		{[]string{"-hotfrac", "2"}, "-hotfrac: bad value 2"},
		{[]string{"-hotprob", "-0.5"}, "-hotprob: bad value -0.5"},
	}
	for _, c := range cases {
		_, err := parseAxes(t, c.args...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want substring %q", c.args, err, c.want)
		}
	}
}

// TestServeAxesScopes: the scope helpers name exactly the set flags a
// mode must reject, so a flag declared with the wrong scope (or not
// classified at all) shows up as a test diff, not a silent ignore.
func TestServeAxesScopes(t *testing.T) {
	a, err := parseAxes(t,
		"-rates", "1", "-queue", "8", "-slo", "50ms", // serve/compare scope
		"-iosched", "elevator", "-json", "/tmp/x", "-clustered", // serve-only scope
		"-devices", "2", "-stripe", "8", // figure scope: never rejected
	)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got, want := a.ServeOnly(), []string{"iosched", "json", "clustered"}; !equalStrings(got, want) {
		t.Errorf("ServeOnly() = %v, want %v", got, want)
	}
	if got, want := a.ServeOrCompareOnly(), []string{"rates", "queue", "slo", "iosched", "json", "clustered"}; !equalStrings(got, want) {
		t.Errorf("ServeOrCompareOnly() = %v, want %v", got, want)
	}

	// Every flag in the table must be classified and every scope helper
	// must cover its scope: an unset axes value reports nothing.
	b, err := parseAxes(t)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := b.ServeOrCompareOnly(); len(got) != 0 {
		t.Errorf("ServeOrCompareOnly() on defaults = %v, want empty", got)
	}
}

// TestServeAxesRegisteredFlagsAreClassified: every name RegisterFlags
// binds is one the scope and side helpers know. With each flag set to a
// legal non-zero value, the flags some mode or binary would reject —
// serve/compare-scoped, client-side, server-side — must be all of them,
// so a flag can never be registered without being classified, or
// classified into no list at all.
func TestServeAxesRegisteredFlagsAreClassified(t *testing.T) {
	var a ServeAxes
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	a.RegisterFlags(fs)
	values := map[string]string{ // everything else takes "1"
		"iosched": "elevator", "tiers": "tiered-rr", "policies": "wfq",
		"clustered": "true", "slo": "1s", "deadline": "1s",
	}
	registered := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) {
		registered[f.Name] = true
		v, ok := values[f.Name]
		if !ok {
			v = "1"
		}
		if err := fs.Set(f.Name, v); err != nil {
			t.Fatalf("-%s=%s: %v (give the flag a legal value in this test)", f.Name, v, err)
		}
	})
	if err := a.Parse(); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	classified := map[string]bool{}
	for _, names := range [][]string{a.ServeOrCompareOnly(), a.ClientSide(), a.ServerSide()} {
		for _, n := range names {
			classified[n] = true
		}
	}
	if !reflect.DeepEqual(registered, classified) {
		t.Errorf("registered flags %v, classified flags %v", registered, classified)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServeAxisTable walks every axis row of the table — the rows that
// own a column. With no axis set, the single point is labelled with the
// documented serving defaults and the sweep's first cell with the
// documented sweep defaults; with every axis set to two values, the
// sweep's cells are labelled with exactly those values, in table order
// with the last axis varying fastest, so the two values of any one axis
// sit in adjacent blocks.
func TestServeAxisTable(t *testing.T) {
	type row = wire.ServeStats
	axes := []struct {
		flag         string // "" = the flagless buffer-policy axis
		label        func(row) any
		point, sweep any // default labels: the serving default, the sweep's first element
		set          func(*ServeAxes)
		vals         [2]any
	}{
		{"rates", func(r row) any { return r.Rate }, 8.0, 1.0, func(a *ServeAxes) { a.Rates = []float64{3, 7} }, [2]any{3.0, 7.0}},
		{"mpls", func(r row) any { return r.MPL }, 8, 8, func(a *ServeAxes) { a.MPLs = []int{2, 16} }, [2]any{2, 16}},
		{"", func(r row) any { return r.Policy }, "PBM", "LRU", func(a *ServeAxes) { a.Policies = []Policy{CScan, MRU} }, [2]any{"CScans", "MRU"}},
		{"devices", func(r row) any { return r.Devices }, 1, 1, func(a *ServeAxes) { a.Devices = []int{4, 2} }, [2]any{4, 2}},
		{"iosched", func(r row) any { return r.IOSched }, "fifo", "fifo", func(a *ServeAxes) { a.IOSchedulers = []string{"elevator", "fifo"} }, [2]any{"elevator", "fifo"}},
		{"tiers", func(r row) any { return r.Tier }, "flat", "flat", func(a *ServeAxes) { a.Tiers = []string{"tiered-temp", "tiered-rr"} }, [2]any{"tiered-temp", "tiered-rr"}},
		{"policies", func(r row) any { return r.Admission }, "fifo", "fifo", func(a *ServeAxes) { a.AdmissionPolicies = []string{"wfq", "sesf"} }, [2]any{"wfq", "sesf"}},
		{"selectivities", func(r row) any { return r.Selectivity }, 1.0, 1.0, func(a *ServeAxes) { a.Selectivities = []float64{0.5, 1} }, [2]any{0.5, 1.0}},
	}
	var labelled []string
	for _, f := range new(ServeAxes).flagTable(true) {
		if f.label != nil {
			labelled = append(labelled, f.name)
		}
	}
	for i, ax := range axes {
		if i >= len(labelled) || labelled[i] != ax.flag {
			t.Fatalf("table rows with a column are %q; this test walks them in that order and must cover each", labelled)
		}
	}
	if len(labelled) != len(axes) {
		t.Fatalf("table rows with a column are %q; this test covers %d", labelled, len(axes))
	}

	rows := func(a ServeAxes, sweep bool) []row {
		cells, err := a.Cells(DefaultServeConfig(), sweep)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]row, len(cells))
		for i, c := range cells {
			out[i] = ServeRowOf(&ServeResult{}, c)
		}
		return out
	}
	point, sweep := rows(ServeAxes{}, false), rows(ServeAxes{}, true)
	if len(point) != 1 || len(sweep) != 3*2*4 {
		t.Fatalf("unset axes: %d point cells, %d sweep cells; want 1 and 24 (rates 1,5,20 x MPLs 8,32 x four buffer policies)", len(point), len(sweep))
	}
	var two ServeAxes
	for _, ax := range axes {
		if got := ax.label(point[0]); got != ax.point {
			t.Errorf("-%s: single-point default label %v, want %v", ax.flag, got, ax.point)
		}
		if got := ax.label(sweep[0]); got != ax.sweep {
			t.Errorf("-%s: sweep default label %v, want %v", ax.flag, got, ax.sweep)
		}
		ax.set(&two)
	}
	cells := rows(two, true)
	if len(cells) != 1<<len(axes) {
		t.Fatalf("two values on each of %d axes gave %d cells", len(axes), len(cells))
	}
	for k, r := range cells {
		for i, ax := range axes {
			if got, want := ax.label(r), ax.vals[k>>(len(axes)-1-i)&1]; got != want {
				t.Fatalf("cell %d, -%s: label %v, want %v", k, ax.flag, got, want)
			}
		}
	}
	// A single point takes the first of the two.
	two.Tiers = two.Tiers[1:] // tiered-temp is the sweep's alone
	for _, ax := range axes {
		want := ax.vals[0]
		if ax.flag == "tiers" {
			want = ax.vals[1]
		}
		if got := ax.label(rows(two, false)[0]); got != want {
			t.Errorf("-%s: single point labelled %v, want the first element %v", ax.flag, got, want)
		}
	}
}
