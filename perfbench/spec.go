package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// specJSON holds the benchmark's fixed constants that BENCHMARK.json has no
// field for: the serve workload's rate steps and latency limit, the held-out
// seed, how each end-to-end metric is defined on each workload, what each
// per-layer metric should move, and which rows of the older BENCH_*.json
// files each metric supersedes. The program reads its serve constants and
// its metric list from here, so the file and the code cannot drift apart.
//
//go:embed spec.json
var specJSON []byte

// serveSpec configures the serve workload.
type serveSpec struct {
	LivePairs   int `json:"live_pairs"`
	FrozenPairs int `json:"frozen_pairs"`
	Points      int `json:"points"`
	Append      int `json:"append_points"`
	Mix         struct {
		Live   float64 `json:"live_search"`
		Frozen float64 `json:"frozen_search"`
		Ingest float64 `json:"ingest"`
	} `json:"mix"`
	Search struct {
		SMin  int     `json:"smin"`
		SMax  int     `json:"smax"`
		TDMax int     `json:"tdmax"`
		Sigma float64 `json:"sigma"`
	} `json:"search"`
	MaxEvaluations   []int     `json:"max_evaluations"` // [lo, hi] of a live search's budget
	FrozenParamSets  int       `json:"frozen_param_sets"`
	RateSteps        []float64 `json:"rate_steps_rps"`
	StepWeights      []float64 `json:"step_weights"`
	NominalStep      int       `json:"nominal_step"`
	SearchP90LimitMS float64   `json:"search_p90_limit_ms"`
	MetricsEverySec  float64   `json:"metrics_scrape_every_s"`
	StatuszEverySec  float64   `json:"statusz_scrape_every_s"`
}

// spec is the part of spec.json the program and its tests read; the held-out
// seed, the superseded rows and the notes are there for readers.
type spec struct {
	Serve    serveSpec             `json:"serve"`
	EndToEnd map[string]metricSpec `json:"end_to_end"`
	PerLayer map[string]metricSpec `json:"per_layer"`
}

// metricSpec describes one metric: its unit and direction, an end-to-end
// metric's bound and definition per workload, and the end-to-end metrics a
// per-layer one should move, as metric@workload.
type metricSpec struct {
	Unit       string            `json:"unit"`
	Better     string            `json:"better"`
	Bound      float64           `json:"bound"`
	Definition map[string]string `json:"definition"`
	Moves      []string          `json:"moves"`
}

// loadSpec decodes the embedded spec.
func loadSpec() (spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return s, fmt.Errorf("spec.json: %w", err)
	}
	sv := s.Serve
	if len(sv.RateSteps) == 0 || len(sv.StepWeights) != len(sv.RateSteps) ||
		sv.NominalStep < 0 || sv.NominalStep >= len(sv.RateSteps) ||
		len(sv.MaxEvaluations) != 2 || sv.MaxEvaluations[0] > sv.MaxEvaluations[1] {
		return s, fmt.Errorf("spec.json: inconsistent serve rate steps")
	}
	return s, nil
}
