package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metrics this program reports
// in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, perLayer[i])
		}
	}
	e2e := map[string]string{"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "paper_err_pct": "%"}
	if len(b.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %+v is not reported with that unit", m)
		}
	}
}

// TestPassMedians checks that one stalled sample of one operation does
// not move a pass's estimate, and that every operation counts once.
func TestPassMedians(t *testing.T) {
	ts := []opTiming{
		{Op: 0, WallS: 2, CPUS: 1}, {Op: 1, WallS: 3, CPUS: 1},
		{Op: 0, WallS: 9, CPUS: 1}, {Op: 1, WallS: 3, CPUS: 1},
		{Op: 0, WallS: 2, CPUS: 1},
	}
	if wall, cpu := passMedians(ts); wall != 5 || cpu != 2 {
		t.Fatalf("wall %v s, cpu %v s; want 5 and 2", wall, cpu)
	}
}
