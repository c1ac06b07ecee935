package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestRunSizes: at a tiny scale factor the TOTAL row is the sum of the
// table rows' bytes, and both accessed volumes are positive and no larger
// than it.
func TestRunSizes(t *testing.T) {
	var out bytes.Buffer
	run(&out, 0.002, 42)
	var sum, total int64
	volumes := 0
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0 || f[0] == "table":
		case f[0] == "TOTAL":
			total = atoi(t, f[1])
		case strings.HasSuffix(line, " bytes"):
			v := atoi(t, f[len(f)-2])
			if v <= 0 || total == 0 || v > total {
				t.Errorf("%q: want a volume in (0, TOTAL=%d]", line, total)
			}
			volumes++
		case len(f) == 5:
			sum += atoi(t, f[3])
		default:
			t.Fatalf("unexpected line %q", line)
		}
	}
	if total == 0 || total != sum {
		t.Errorf("TOTAL %d, want the tables' sum %d", total, sum)
	}
	if volumes != 2 {
		t.Errorf("%d accessed-volume lines, want 2\n%s", volumes, out.String())
	}
}

func atoi(t *testing.T, s string) int64 {
	t.Helper()
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
