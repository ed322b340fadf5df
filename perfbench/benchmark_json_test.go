package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric and
// workload catalogue in step: every declared metric is one the program
// prints, with the same unit and direction, and vice versa.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var cfg struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, program %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, e2eMetrics)
	same("per_layer", cfg.PerLayer, allLayerMetrics())

	var setupBound float64
	for _, m := range cfg.EndToEnd {
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range cfg.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Name != "setup_s" && m.Bound >= setupBound) {
			t.Errorf("%s: bound %v outside (0, 0.25] or not below setup_s's %v", m.Name, m.Bound, setupBound)
		}
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if cfg.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, cfg.Workloads[i].Name, w.name)
		}
		if _, ok := workloadUnits[w.name]; !ok {
			t.Errorf("workload %s does not define its operation and work units", w.name)
		}
	}
}
