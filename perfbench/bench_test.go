package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// runSmall runs one traced and one untraced pass of a workload at a tenth
// of its population for one measured second each.
func runSmall(t *testing.T, name string, seed uint64) (untraced, traced *result) {
	t.Helper()
	for _, tracedRun := range []bool{false, true} {
		w, err := newWorkload(name, seed, 0.1, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, lines, err := execute(w, time.Second, tracedRun, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(lines) == 0 || res.Attempted < 1 {
			t.Fatalf("%s: no outcomes checked (attempted %d)", name, res.Attempted)
		}
		if tracedRun {
			traced = res
		} else {
			untraced = res
		}
	}
	return untraced, traced
}

// TestWorkloadsFinishAndCheck runs every workload small, checks that its
// oracle ran and that the counts the benchmark reports as deterministic,
// queries' attempted and failed outcomes among them, repeat exactly for a
// seed.
func TestWorkloadsFinishAndCheck(t *testing.T) {
	deterministic := map[string][]string{
		"stream":  nil,
		"flood":   {"pubsub.subs_sent_per_flood", "pubsub.suppressed_share", "pubsub.retractions_per_flood"},
		"queries": {"e2e.wcost_per_tuple", "engine.consumed_per_tuple", "engine.emitted_per_tuple", "engine.dropped_per_tuple"},
	}
	for _, name := range []string{"stream", "flood", "queries"} {
		t.Run(name, func(t *testing.T) {
			u1, t1 := runSmall(t, name, 7)
			_, t2 := runSmall(t, name, 7)
			for _, r := range []*result{u1, t1, t2} {
				if !r.Correct {
					t.Errorf("incorrect run: %+v", r)
				}
			}
			if name != "queries" && (u1.Failed != 0 || t1.Failed != 0) {
				t.Errorf("failed outcomes: untraced %d, traced %d", u1.Failed, t1.Failed)
			}
			if name == "queries" {
				for _, r := range []*result{t1, t2} {
					if r.Attempted != u1.Attempted || r.Failed != u1.Failed {
						t.Errorf("outcomes not repeated exactly for one seed: %d/%d vs %d/%d",
							r.Failed, r.Attempted, u1.Failed, u1.Attempted)
					}
				}
			}
			for _, m := range endToEnd {
				if v := u1.Metrics[m.name].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end %s = %v, want a positive number", m.name, v)
				}
			}
			if len(u1.Metrics) != len(endToEnd) || len(t1.Metrics) != len(perLayer) {
				t.Errorf("metric sets: %d untraced, %d traced", len(u1.Metrics), len(t1.Metrics))
			}
			for _, m := range deterministic[name] {
				if a, b := t1.Metrics[m].Value, t2.Metrics[m].Value; a != b || a == 0 {
					t.Errorf("%s not repeated exactly for one seed: %v vs %v", m, a, b)
				}
			}
			cpu := 0.0
			for _, b := range cpuBuckets {
				cpu += t1.Metrics["cpu."+b].Value
			}
			if math.Abs(cpu-1) > 1e-9 {
				t.Errorf("cpu shares sum to %v", cpu)
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the metrics
// the benchmark prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if _, err := newWorkload(wl.Name, 1, 0.1, 1); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}
