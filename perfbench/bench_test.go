package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// TestWorkloads runs every workload of BENCHMARK.json briefly, untraced
// and traced, and checks that the gate passes and that every metric the
// file names is printed with its unit.
func TestWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", trace, "--spans", t.TempDir()}
				if err := run(args, &out); err != nil {
					t.Fatalf("run: %v", err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestMetricsDocumented checks that metrics.json says what every
// per-layer metric is read from and what it should move.
func TestMetricsDocumented(t *testing.T) {
	spec := loadSpec(t)
	b, err := os.ReadFile("metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerLayer map[string]struct {
			Source string `json:"source"`
			Moves  string `json:"moves"`
			On     string `json:"on"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.PerLayer {
		d, ok := doc.PerLayer[m.Name]
		if !ok || d.Source == "" || d.Moves == "" || d.On == "" {
			t.Errorf("metrics.json does not document %s", m.Name)
		}
		if perLayerUnits[m.Name] != m.Unit {
			t.Errorf("%s: the benchmark's unit %q, BENCHMARK.json's %q", m.Name, perLayerUnits[m.Name], m.Unit)
		}
	}
	if len(doc.PerLayer) != len(spec.PerLayer) {
		t.Errorf("metrics.json documents %d per-layer metrics, BENCHMARK.json names %d", len(doc.PerLayer), len(spec.PerLayer))
	}
}
