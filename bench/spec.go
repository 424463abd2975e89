package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric declaration in BENCHMARK.json. Bound is the
// share of the reference value by which an end-to-end metric may get
// worse before a change counts as a regression; per-layer metrics
// carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is what the driver reads of BENCHMARK.json, the contract
// it prints against: -selfcheck and -compare read their bounds from
// it, and the smoke test checks every declared name is emitted.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metric is one measured value as printed and as written to
// results.json.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// worseBy returns by what share of ref the value got worse (negative
// when it improved), given the metric's direction.
func worseBy(better string, ref, got float64) float64 {
	if ref == 0 {
		return 0
	}
	if better == "higher" {
		return (ref - got) / ref
	}
	return (got - ref) / ref
}
