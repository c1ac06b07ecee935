package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json: the single declaration of workloads,
// metric names, units, directions and regression bounds. The program
// takes units from it when it reports and bounds when it compares.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json in the working directory or its parent:
// the driver runs from the checkout root, `go test` from bench/.
func loadSpec() (*benchSpec, error) {
	var lastErr error
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			lastErr = err
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, nil
	}
	return nil, lastErr
}

func (s *benchSpec) metric(name string) (metricDecl, bool) {
	for _, list := range [][]metricDecl{s.EndToEnd, s.PerLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDecl{}, false
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}
