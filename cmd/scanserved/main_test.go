package main

import (
	"strings"
	"testing"

	scanshare "repro"
)

// TestPolicyMenuParses holds the -policy help text to the parser: every
// value it offers selects a policy, and together they name every one.
func TestPolicyMenuParses(t *testing.T) {
	seen := map[scanshare.Policy]string{}
	for _, name := range strings.Split(policyMenu, ", ") {
		p, err := scanshare.ParsePolicy(name)
		if err != nil {
			t.Errorf("-policy %s: %v", name, err)
			continue
		}
		if prev, dup := seen[p]; dup {
			t.Errorf("-policy %s and %s both select %v", prev, name, p)
		}
		seen[p] = name
	}
	if len(seen) != 6 {
		t.Errorf("menu %q names %d distinct policies, want 6", policyMenu, len(seen))
	}
}
