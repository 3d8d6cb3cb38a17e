package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// manifestMetric is one metric of ../BENCHMARK.json.
type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// benchmarkFile is the part of ../BENCHMARK.json the spec must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

// agree reports every difference between a manifest list and a spec map.
func agree(t *testing.T, kind string, list []manifestMetric, m map[string]metricSpec) {
	t.Helper()
	seen := map[string]bool{}
	for _, mm := range list {
		seen[mm.Name] = true
		s, ok := m[mm.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s is not in spec.json", kind, mm.Name)
		case s.Unit != mm.Unit || s.Better != mm.Better:
			t.Errorf("%s metric %s: BENCHMARK.json says %s/%s, spec.json %s/%s", kind, mm.Name, mm.Unit, mm.Better, s.Unit, s.Better)
		case mm.Bound != nil && *mm.Bound != s.Bound:
			t.Errorf("%s metric %s: bound %g in BENCHMARK.json, %g in spec.json", kind, mm.Name, *mm.Bound, s.Bound)
		}
	}
	for n := range m {
		if !seen[n] {
			t.Errorf("spec.json %s metric %s is not in BENCHMARK.json", kind, n)
		}
	}
}

func TestSpecAgreesWithBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not beside the benchmark: %v", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	agree(t, "end-to-end", b.EndToEnd, s.EndToEnd)
	agree(t, "per-layer", b.PerLayer, s.PerLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		// Every workload reports every end-to-end metric, so each needs a
		// definition there.
		for n, m := range s.EndToEnd {
			if m.Definition[w.Name] == "" {
				t.Errorf("end-to-end metric %s has no definition on workload %s", n, w.Name)
			}
		}
	}
	for n, m := range s.PerLayer {
		for _, mv := range m.Moves {
			name, wl, ok := strings.Cut(mv, "@")
			if _, known := s.EndToEnd[name]; !ok || !known || workloads[wl] == nil {
				t.Errorf("per-layer metric %s moves %q, not an end-to-end metric@workload", n, mv)
			}
		}
	}
	// The serve workload's reason states the rate steps and the limit.
	for _, w := range b.Workloads {
		if w.Name != "serve" {
			continue
		}
		var rates []string
		for _, r := range s.Serve.RateSteps {
			rates = append(rates, fmt.Sprint(r))
		}
		for _, want := range []string{strings.Join(rates, "/") + " rps", fmt.Sprintf("p90 limit %g ms", s.Serve.SearchP90LimitMS)} {
			if !strings.Contains(w.Why, want) {
				t.Errorf("serve workload reason %q does not state %q", w.Why, want)
			}
		}
	}
}
