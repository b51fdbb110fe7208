package apps

import (
	"encoding/json"
	"os"
	"testing"
)

// counts are the exact, machine-independent figures of one run: data
// messages, payload bytes and the modelled makespan.
type counts struct {
	Msgs      int64   `json:"msgs"`
	Bytes     int64   `json:"bytes"`
	ModelTime float64 `json:"model_time"`
}

// countRuns are small runs shaped like the four benchmark workloads, at
// P = 4 under the Hockney model the benchmark uses.
var countRuns = []struct {
	name string
	run  func(t *testing.T) (Outcome, error)
}{
	{"adi_dynamic", func(t *testing.T) (Outcome, error) {
		res, err := RunADI(ADIConfig{NX: 64, NY: 64, Iters: 4, P: 4, Mode: ADIDynamic, Alpha: 1e-4, Beta: 1e-8})
		return res.Outcome, err
	}},
	{"smooth_halo", func(t *testing.T) (Outcome, error) {
		res, err := RunSmoothing(SmoothConfig{N: 128, Steps: 12, P: 4, Mode: SmoothBlock2D, Overlap: true, Alpha: 1e-4, Beta: 1e-8})
		return res.Outcome, err
	}},
	{"pic_rebalance", func(t *testing.T) (Outcome, error) {
		res, err := RunPIC(PICConfig{
			NCell: 64, Steps: 40, P: 4, Rebalance: true, RebalanceEvery: 10, RebalanceThreshold: 1.0,
			DriftFrac: 0.1, InitPerCell: 64, WorkPerParticle: 1, Alpha: 1e-4, Beta: 1e-8,
		})
		return res.Outcome, err
	}},
	// Checkpoints every 5 iterations over TCP with CRC32C, then a second
	// run that restores the last epoch and finishes: the two runs' counts
	// summed.
	{"adi_ckpt_tcp", func(t *testing.T) (Outcome, error) {
		cfg := ADIConfig{
			NX: 48, NY: 48, Iters: 10, P: 4, Mode: ADIDynamic, Alpha: 1e-4, Beta: 1e-8,
			Runtime: Runtime{UseTCP: true, Integrity: true, CkptDir: t.TempDir(), CkptEvery: 5, IO: IOConfig{Keep: 2}},
		}
		a, err := RunADI(cfg)
		if err != nil {
			return a.Outcome, err
		}
		cfg.Iters, cfg.Recover = 20, true
		b, err := RunADI(cfg)
		b.Msgs, b.Bytes, b.ModelTime = a.Msgs+b.Msgs, a.Bytes+b.Bytes, a.ModelTime+b.ModelTime
		return b.Outcome, err
	}},
}

// TestExactCounts: every run moves exactly the messages and bytes, and
// takes exactly the modelled time, that testdata/counts.json records —
// the counts half of the benchmark's referee, at bound 0.  A change that
// means to move a count rewrites its entry and says why.
func TestExactCounts(t *testing.T) {
	raw, err := os.ReadFile("testdata/counts.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]counts
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := map[string]counts{}
	for _, r := range countRuns {
		out, err := r.run(t)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got[r.name] = counts{out.Msgs, out.Bytes, out.ModelTime}
		if w, ok := want[r.name]; !ok || got[r.name] != w {
			t.Errorf("%s: %+v, want %+v", r.name, got[r.name], w)
		}
	}
	if len(want) != len(countRuns) {
		t.Errorf("testdata/counts.json has %d entries, want %d", len(want), len(countRuns))
	}
	if t.Failed() {
		b, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("measured:\n%s", b)
	}
}
