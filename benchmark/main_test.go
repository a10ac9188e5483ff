package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

func tinyConfig(seed int64, traced bool, dir string) *config {
	return &config{seed: seed, seconds: 1, rounds: 2, setups: 1, traced: traced, outDir: dir, shrink: 64, sz: frozenSizes().shrink(64)}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables: BENCHMARK.json and the program's own metric
// tables must name the same workloads and metrics with the same units,
// directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end %s: bad name, unit, bound or duplicate", d.name)
		}
		seen[d.name] = true
	}
	for i, d := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("per-layer %s: bad name, unit or duplicate", d.name)
		}
		seen[d.name] = true
	}
}

func isVirtual(d metricDef) bool { return d.clock == "virtual" }

// TestSmoke runs every workload at a tiny scale: every end-to-end metric must
// come out non-zero with its unit and no failed operation, and the in-process
// workloads' virtual-clock metrics must repeat bit for bit for one seed and
// differ for another.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			run := func(seed int64) *runResult {
				m, err := measure(tinyConfig(seed, false, t.TempDir()), w, nil)
				if err != nil {
					t.Fatal(err)
				}
				m.sys.close()
				res := m.res
				if res.failed != 0 || res.attempted < 1 {
					t.Fatalf("seed %d: %d of %d operations failed", seed, res.failed, res.attempted)
				}
				return res
			}
			a := run(1)
			var out bytes.Buffer
			report(&out, a, endToEnd)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the JSON result: %v", err)
			}
			if !last.Correct || len(last.Metrics) != len(endToEnd) {
				t.Fatalf("correct=%v with %d metrics, want %d", last.Correct, len(last.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if m, ok := last.Metrics[d.name]; !ok || m.Unit != d.unit || !(m.Value > 0) {
					t.Errorf("%s: emitted %+v (present=%v), want a positive value in %s", d.name, m, ok, d.unit)
				}
			}
			if w.name != "vpic-timesteps" && w.name != "array-replicated" {
				return
			}
			b, c := run(1), run(2)
			differs := false
			for _, d := range endToEnd {
				if !isVirtual(d) {
					continue
				}
				if a.metrics[d.name] != b.metrics[d.name] {
					t.Errorf("%s: %v then %v for the same seed", d.name, a.metrics[d.name], b.metrics[d.name])
				}
				differs = differs || a.metrics[d.name] != c.metrics[d.name]
			}
			if !differs {
				t.Error("another seed gave the same virtual-clock metrics")
			}
		})
	}
}

// TestTracedSmoke: a traced run emits every per-layer metric and writes the
// merged trace and layers.json.
func TestTracedSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runTraced(tinyConfig(1, true, dir), w)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Fatalf("%d operations failed", res.failed)
			}
			for _, d := range perLayer {
				if _, ok := res.metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s not emitted", d.name)
				}
			}
			if len(res.metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics emitted, want %d", len(res.metrics), len(perLayer))
			}
			if res.metrics["trace.overhead_ratio"] <= 0 {
				t.Error("trace.overhead_ratio not measured")
			}
			for _, f := range []string{"trace.json", "layers.json"} {
				raw, err := os.ReadFile(dir + "/" + w.name + "/" + f)
				if err != nil {
					t.Fatal(err)
				}
				if !json.Valid(raw) {
					t.Errorf("%s is not valid JSON", f)
				}
			}
		})
	}
}
