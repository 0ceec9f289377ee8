package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// declared is the metric list BENCHMARK.json fixes, name to unit.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
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
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// short runs one workload briefly.
func short(t *testing.T, w *workload, trace bool) *result {
	t.Helper()
	res, err := execute(runConfig{
		workload: w, seed: 7, seconds: 0.5, trace: trace,
		minQueries: 20, setups: 1, spanDir: t.TempDir(),
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// checkMetrics requires exactly the declared metrics, with their units.
func checkMetrics(t *testing.T, name string, got map[string]metric, want map[string]string) {
	t.Helper()
	for m, unit := range want {
		g, ok := got[m]
		if !ok {
			t.Errorf("%s: metric %s missing", name, m)
		} else if g.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", name, m, g.Unit, unit)
		}
	}
	for m := range got {
		if _, ok := want[m]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", name, m)
		}
	}
}

// TestBenchmarkSelf runs every workload briefly, end to end and traced
// twice: every declared metric is reported with its unit and nothing
// fails; the exact counts repeat under one seed; the hot workloads hit
// the plan cache on every lookup.
func TestBenchmarkSelf(t *testing.T) {
	endToEnd, perLayer := declared(t)
	exact := []string{"sim.cycles_per_query", "sim.line_accesses_per_query", "obs.spans_per_query"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			checkMetrics(t, w.name, short(t, w, false).Metrics, endToEnd)
			a, b := short(t, w, true), short(t, w, true)
			checkMetrics(t, w.name+" traced", a.Metrics, perLayer)
			for _, m := range exact {
				if a.Metrics[m] != b.Metrics[m] {
					t.Errorf("%s: %s differs between runs with one seed: %v, %v", w.name, m, a.Metrics[m].Value, b.Metrics[m].Value)
				}
			}
			if w.name == "point-hot" || w.name == "scan-join" {
				if hr := a.Metrics["server.plan_hit_rate"].Value; hr != 1 {
					t.Errorf("%s: plan hit rate %v, want 1", w.name, hr)
				}
			}
		})
	}
}

// TestSequencesFollowSeed checks that the seed alone fixes the
// statement sequences, and that the mixes have the properties the
// workloads were chosen for.
func TestSequencesFollowSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.sequences(1), w.sequences(1), w.sequences(2)
		for i := range a {
			if seqHash(a[i]) != seqHash(b[i]) {
				t.Errorf("%s client %d: one seed gave two sequences", w.name, i)
			}
		}
		if w.name != "measured-mix" && seqHash(a[0]) == seqHash(c[0]) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", w.name)
		}
		n := len(distinct(a))
		switch w.name {
		case "plan-churn":
			if n < 4*planCache {
				t.Errorf("plan-churn has %d distinct statements, want at least %d", n, 4*planCache)
			}
		default:
			if n > planCache/2 {
				t.Errorf("%s has %d distinct statements; its plans must fit the plan cache", w.name, n)
			}
		}
	}
}
