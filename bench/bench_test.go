package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// tiny are smoke-test inputs: every code path of a full run, in
// milliseconds.  No timing is asserted.
func tiny(w workload) params {
	return params{edge: 64, ncell: 64, drift: 0.1, steps: 2 * w.quantum}
}

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]bool, names []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]bool{}, map[string]bool{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = true
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = true
	}
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	return endToEnd, perLayer, names
}

// TestSmoke runs all four workloads end to end on tiny inputs — zero-step
// runs, timed rounds, the determinism check and the oracle — each step
// replica against its app, and the layer probes once, so tier-1 catches a
// refactor that breaks the surface the benchmark imports.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer, names := declared(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	// sameNames fails unless a run reported exactly the declared metrics.
	sameNames := func(t *testing.T, kind string, got map[string]metric, want map[string]bool) {
		t.Helper()
		for name := range got {
			if !want[name] {
				t.Errorf("%s metric %s is not declared in BENCHMARK.json", kind, name)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s metric %s is declared in BENCHMARK.json and not reported", kind, name)
			}
		}
	}
	out := t.TempDir()
	probes := measureProbes(out)
	if !probes.Correct {
		t.Fatalf("layer probes failed (see FAIL lines)")
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, names[i], w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			p := tiny(w)
			res := measureEndToEnd(w, p, out)
			if !res.Correct {
				t.Fatalf("end-to-end run failed: %d of %d", res.Failed, res.Attempted)
			}
			sameNames(t, "end-to-end", res.Metrics, endToEnd)

			rep := measureReplica(w, p, out)
			if !rep.Correct {
				t.Fatalf("replica: %d of %d checks failed (see FAIL lines)", rep.Failed, rep.Attempted)
			}
			layers := map[string]metric{}
			for _, mm := range []map[string]metric{probes.Metrics, rep.Metrics} {
				for name, m := range mm {
					layers[name] = m
				}
			}
			sameNames(t, "per-layer", layers, perLayer)
			if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

// TestMakeParams pins the input generator: seed 0 is the canonical sizes,
// the same seed gives the same inputs, and S follows --seconds.
func TestMakeParams(t *testing.T) {
	w, _ := findWorkload("adi_ckpt_tcp")
	if p := makeParams(w, 0, refSeconds); p.edge != 768 || p.steps != w.refSteps {
		t.Errorf("seed 0: %+v", p)
	}
	if a, b := makeParams(w, 3, refSeconds), makeParams(w, 3, refSeconds); a != b {
		t.Errorf("seed 3 gave %+v and %+v", a, b)
	}
	if p := makeParams(w, 7, 1); p.steps != w.quantum || p.edge != 770 {
		t.Errorf("seed 7 at 1 s: %+v", p)
	}
	if whole, half := makeParams(w, 0, refSeconds), makeParams(w, 0, refSeconds/2); 2*half.steps != whole.steps {
		t.Errorf("half the seconds gave S = %d, the whole %d", half.steps, whole.steps)
	}
}
