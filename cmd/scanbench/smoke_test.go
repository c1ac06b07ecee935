package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	scanshare "repro"
	"repro/wire"
)

var tablesDir = flag.String("tables", "", "directory holding the `-json` outputs of CI's policy-smoke runs; TestSmokeRows is skipped without it")

// TestSmokeRows checks the rows CI's policy-smoke job emits with -json:
// every file parses strictly as the wire schema, every cell of the cross
// product the command line asked for is there, and the cells meant to
// exercise a mechanism (elevator queues, temperature tiering, the write
// path with mid-run checkpoints) actually did. Run it as
//
//	go test ./cmd/scanbench -run TestSmokeRows -args -tables "$PWD/tables"
func TestSmokeRows(t *testing.T) {
	if *tablesDir == "" {
		t.Skip("no -tables directory")
	}
	admissions := []string{"fifo", "sesf", "wfq"}
	count := func(rows []scanshare.ServeRow, match func(scanshare.ServeRow) bool) (n int) {
		for _, r := range rows {
			if match(r) {
				n++
			}
		}
		return n
	}
	for _, c := range []struct {
		file string
		// perAdmission is the row count wanted per admission policy: 4
		// buffer policies x the cell's device counts x its selectivities. Zero skips the check.
		perAdmission int
		// atLeast4 names a label at least four rows must carry.
		atLeast4 string
		writes   bool
	}{
		{file: "policy-serve-sim.json", perAdmission: 16},
		{file: "policy-serve-real.json", perAdmission: 16},
		{file: "policy-serve-lifecycle-sim.json", perAdmission: 4},
		{file: "policy-serve-lifecycle-real.json", perAdmission: 4},
		{file: "policy-serve-htap-sim.json", perAdmission: 4, writes: true},
		{file: "policy-serve-htap-real.json", perAdmission: 4, writes: true},
		{file: "device-intel-sim.json", atLeast4: "elevator"},
		{file: "device-intel-real.json", atLeast4: "elevator"},
		{file: "device-tiering-sim.json", atLeast4: "tiered-temp"},
	} {
		t.Run(c.file, func(t *testing.T) {
			b, err := os.ReadFile(filepath.Join(*tablesDir, c.file))
			if err != nil {
				t.Fatal(err)
			}
			var rows []scanshare.ServeRow
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&rows); err != nil {
				t.Fatalf("not the wire.ServeStats schema: %v", err)
			}
			for _, r := range rows {
				resolved := r.Completed + r.Rejected + r.TimedOut + r.Cancelled
				if _, err := scanshare.ParsePolicy(r.Policy); err != nil || r.MPL <= 0 || r.Devices <= 0 || resolved <= 0 {
					t.Errorf("implausible row: %+v", r)
				}
				// The update-mix cells must exercise the write path, not
				// just print its columns.
				if c.writes && (r.WrQps <= 0 || r.Checkpoints < 1) {
					t.Errorf("update-mix row lacks write throughput or a mid-run checkpoint: %+v", r)
				}
			}
			if c.perAdmission > 0 {
				for _, adm := range admissions {
					if n := count(rows, func(r scanshare.ServeRow) bool { return r.Admission == adm }); n != c.perAdmission {
						t.Errorf("%d rows for admission policy %s, want %d", n, adm, c.perAdmission)
					}
				}
			}
			if c.atLeast4 != "" {
				if n := count(rows, func(r scanshare.ServeRow) bool { return r.IOSched == c.atLeast4 || r.Tier == c.atLeast4 }); n < 4 {
					t.Errorf("%d %s rows, want at least 4", n, c.atLeast4)
				}
			}
		})
	}
}

var e2eDir = flag.String("e2e", "", "directory holding the /v1/statz snapshots of CI's serve-e2e runs; TestE2EStatz is skipped without it")

// TestE2EStatz checks the /v1/statz snapshot CI's serve-e2e job saves per
// admission policy, after scanload has finished and before the drain:
// it parses strictly as wire.Statz, it carries every field of that
// schema (re-encoding the decoded value must yield the same tree of
// keys, so a field the server dropped or renamed shows up), it counts
// the updates scanload's write stream applied, it exports the shipdate
// domain, and the zone maps pruned the windows scanload sent over the
// clustered table. Run it as
//
//	go test ./cmd/scanbench -run TestE2EStatz -args -e2e "$PWD/e2e"
func TestE2EStatz(t *testing.T) {
	if *e2eDir == "" {
		t.Skip("no -e2e directory")
	}
	// keys reduces a decoded JSON document to its tree of object keys.
	var keys func(v any) any
	keys = func(v any) any {
		obj, ok := v.(map[string]any)
		if !ok {
			return nil
		}
		out := map[string]any{}
		for k, f := range obj {
			out[k] = keys(f)
		}
		return out
	}
	for _, pol := range []string{"fifo", "sesf", "wfq"} {
		t.Run(pol, func(t *testing.T) {
			b, err := os.ReadFile(filepath.Join(*e2eDir, "statz-"+pol+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var z wire.Statz
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&z); err != nil {
				t.Fatalf("not the wire.Statz schema: %v", err)
			}
			again, err := json.Marshal(z)
			if err != nil {
				t.Fatal(err)
			}
			var got, want any
			if err := json.Unmarshal(b, &got); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(again, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(keys(got), keys(want)) {
				t.Errorf("/v1/statz fields differ from wire.Statz:\n got %s\nwant %s", b, again)
			}
			if z.Version == "" || z.NumTuples <= 0 || z.Arrived <= 0 || z.Stats.Completed <= 0 {
				t.Errorf("implausible snapshot: %+v", z)
			}
			if z.Stats.Writes <= 0 {
				t.Errorf("the write stream never reached the PDT store: Writes = %d", z.Stats.Writes)
			}
			if z.Domain.Col != "l_shipdate" || z.Domain.Lo >= z.Domain.Hi {
				t.Errorf("Domain = %+v, want l_shipdate bounds with Lo < Hi", z.Domain)
			}
			if z.Stats.SkipPct <= 0 {
				t.Errorf("SkipPct = %v: no shipdate window crossed the socket and pruned", z.Stats.SkipPct)
			}
		})
	}
}

// capture returns what fn prints to os.Stdout.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	fn()
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestServeTableHeader pins the printed serve table's column set — the
// lifecycle (to%, can%), write (wr q/s, ckpts, mrg p95), data-skipping
// (sel, skip%) and device (seeks, skew) columns included — in both
// renderings, the -tsv header as the literal line the binary printed
// before the columns were one table, and that a row fills every column.
func TestServeTableHeader(t *testing.T) {
	rows := []scanshare.ServeRow{{Policy: "PBM", Admission: "fifo", IOSched: "fifo", Tier: "flat", Devices: 1}}
	lines := strings.Split(strings.TrimSpace(capture(t, func() { printServe(rows, false, false) })), "\n")
	if len(lines) != 3 {
		t.Fatalf("want title, header and one row, got:\n%s", strings.Join(lines, "\n"))
	}
	cells := func(line string) []string { return regexp.MustCompile(` {2,}`).Split(strings.TrimSpace(line), -1) }
	want := []string{"rate/stream", "MPL", "policy", "admit", "devs", "iosched", "tier", "sel", "done", "rej",
		"to%", "can%", "thru (q/s)", "wr q/s", "ckpts", "mrg p95", "p50", "p95", "p99", "qwait p95", "SLO %",
		"p95/tenant", "SLO %/tenant", "skip%", "I/O MB", "rd MB/s", "seeks", "skew"}
	if got := cells(lines[1]); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("header columns:\n got %q\nwant %q", got, want)
	}
	if got := cells(lines[2]); len(got) != len(want) {
		t.Errorf("row has %d cells, header %d: %q", len(got), len(want), got)
	}

	const tsvHeader = "rate_qps\tmpl\tpolicy\tadmission\tdevices\tiosched\ttier\tselectivity\tcompleted\trejected\ttimedout_pct\tcancelled_pct\tthroughput_qps\twrites\twr_qps\tcheckpoints\tmerge_p95_ms\tp50_ms\tp95_ms\tp99_ms\tqwait_p95_ms\tslo_pct\ttenant_p95_ms\ttenant_slo_pct\tskip_pct\tio_mb\tread_mbps\tseeks\tskew"
	lines = strings.Split(strings.TrimRight(capture(t, func() { printServe(rows, false, true) }), "\n"), "\n")
	if len(lines) != 3 || lines[1] != tsvHeader {
		t.Errorf("-tsv header:\n got %q\nwant %q", lines[1:], tsvHeader)
	} else if got, want := strings.Count(lines[2], "\t"), strings.Count(tsvHeader, "\t"); got != want {
		t.Errorf("-tsv row has %d tabs, header %d: %q", got, want, lines[2])
	}
}

// TestCompareColumnsAreServeColumns: -compare prints a named subset of
// the serve table, so every name must be a serve column; both headers
// are the literal lines recorded before the subset was named.
func TestCompareColumnsAreServeColumns(t *testing.T) {
	var row scanshare.ServeRow
	for tsv, want := range map[bool]string{
		true:  "loop\trate_qps\tmpl\tpolicy\tadmission\tdevices\tcompleted\trejected\tthroughput_qps\tp50_ms\tp95_ms\tp99_ms\tqwait_p95_ms\tslo_pct\tio_mb",
		false: "loop\tdone\trej\tthru (q/s)\tp50\tp95\tp99\tqwait p95\tSLO %\tI/O MB",
	} {
		lines := strings.Split(capture(t, func() { printCompare(row, row, false, tsv) }), "\n")
		if len(lines) < 5 {
			t.Fatalf("tsv=%v: want title, header and three rows, got %q", tsv, lines)
		}
		got := lines[1]
		if !tsv { // aligned: columns are two or more spaces apart
			got = regexp.MustCompile(` {2,}`).ReplaceAllString(got, "\t")
		}
		if got != want {
			t.Errorf("tsv=%v header:\n got %q\nwant %q", tsv, got, want)
		}
	}
}
