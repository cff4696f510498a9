package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks
// against: the metric names and units each mode must report.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyConfig(t *testing.T, corrupt bool) config {
	return config{seed: 7, tiny: true, workdir: t.TempDir(), corrupt: corrupt}
}

// TestTinyRunsReportEveryMetric runs every workload at self-test size, untraced
// and traced, and checks that each run is correct and reports exactly the
// metrics BENCHMARK.json lists, with their units.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadDefs))
	}
	for _, wl := range spec.Workloads {
		def, ok := lookupWorkload(wl.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not defined", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			want := make(map[string]string)
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, err := run(context.Background(), def, tinyConfig(t, false), time.Second, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", def.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", def.name, traced, name)
				} else if m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q", def.name, traced, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", def.name, traced, name)
				}
			}
			if !traced {
				continue
			}
			if drift := res.Metrics["bench.exact_drift"].Value; drift != 0 {
				t.Errorf("%s: %v exact counts drifted", def.name, drift)
			}
		}
	}
}

// TestExactCountsRepeat runs the traced probes twice on one seed and checks
// that the exact counts agree.
func TestExactCountsRepeat(t *testing.T) {
	def, _ := lookupWorkload("serve-mutate")
	var first map[string]metric
	for i := 0; i < 2; i++ {
		res, err := run(context.Background(), def, tinyConfig(t, false), time.Second, true)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res.Metrics
			continue
		}
		for _, name := range exactMetrics {
			if a, b := first[name].Value, res.Metrics[name].Value; a != b {
				t.Errorf("%s: %v then %v", name, a, b)
			}
		}
	}
	if first["tenant.hit_ratio"].Value != float64(serveHits)/float64(serveHits+1) {
		t.Errorf("tenant.hit_ratio %v, the script gives %d hits per executed read", first["tenant.hit_ratio"].Value, serveHits)
	}
}

// TestCorruptedReferenceIsCaught flips each workload's reference result and
// checks that the run reports failures and is not correct.
func TestCorruptedReferenceIsCaught(t *testing.T) {
	for _, def := range workloadDefs {
		res, err := run(context.Background(), def, tinyConfig(t, true), time.Second, false)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted reference went unnoticed (attempted %d, failed %d)", def.name, res.Attempted, res.Failed)
		}
	}
}
