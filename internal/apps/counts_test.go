package apps

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
)

// counts are the exact, machine-independent figures of one run: data
// messages, payload bytes, the modelled makespan and the IEEE-754 bits
// of the run's checksum.
type counts struct {
	Msgs         int64   `json:"msgs"`
	Bytes        int64   `json:"bytes"`
	ModelTime    float64 `json:"model_time"`
	ChecksumBits uint64  `json:"checksum_bits"`
}

// countRuns are small runs shaped like the four benchmark workloads, at
// P = 4 under the Hockney model the benchmark uses; run takes the step
// count and returns the outcome and the checksum (PIC's field checksum),
// steps is the one TestExactCounts pins.
var countRuns = []struct {
	name  string
	steps int
	run   func(t *testing.T, steps int) (Outcome, float64, error)
}{
	{"adi_dynamic", 4, func(t *testing.T, steps int) (Outcome, float64, error) {
		res, err := RunADI(ADIConfig{NX: 64, NY: 64, Iters: steps, P: 4, Mode: ADIDynamic, Alpha: 1e-4, Beta: 1e-8})
		return res.Outcome, res.Checksum, err
	}},
	{"smooth_halo", 12, func(t *testing.T, steps int) (Outcome, float64, error) {
		res, err := RunSmoothing(SmoothConfig{N: 128, Steps: steps, P: 4, Mode: SmoothBlock2D, Overlap: true, Alpha: 1e-4, Beta: 1e-8})
		return res.Outcome, res.Checksum, err
	}},
	{"pic_rebalance", 40, func(t *testing.T, steps int) (Outcome, float64, error) {
		res, err := RunPIC(PICConfig{
			NCell: 64, Steps: steps, P: 4, Rebalance: true, RebalanceEvery: 10, RebalanceThreshold: 1.0,
			DriftFrac: 0.1, InitPerCell: 64, WorkPerParticle: 1, Alpha: 1e-4, Beta: 1e-8,
		})
		return res.Outcome, res.FieldChecksum, err
	}},
	// Checkpoints every 5 iterations over TCP with CRC32C, then a second
	// run that restores the last epoch and finishes: the two runs' counts
	// summed.  steps is a multiple of 10.
	{"adi_ckpt_tcp", 20, func(t *testing.T, steps int) (Outcome, float64, error) {
		cfg := ADIConfig{
			NX: 48, NY: 48, Iters: steps / 2, P: 4, Mode: ADIDynamic, Alpha: 1e-4, Beta: 1e-8,
			Runtime: Runtime{UseTCP: true, Integrity: true, CkptDir: t.TempDir(), CkptEvery: 5, IO: IOConfig{Keep: 2}},
		}
		a, err := RunADI(cfg)
		if err != nil {
			return a.Outcome, 0, err
		}
		cfg.Iters, cfg.Recover = steps, true
		b, err := RunADI(cfg)
		b.Msgs, b.Bytes, b.ModelTime = a.Msgs+b.Msgs, a.Bytes+b.Bytes, a.ModelTime+b.ModelTime
		return b.Outcome, b.Checksum, err
	}},
}

// TestExactCounts: every run moves exactly the messages and bytes, and
// takes exactly the modelled time, and ends on exactly the checksum,
// that testdata/counts.json records — the counts half of the benchmark's
// referee, at bound 0, and a pin on what the runs compute.  A change that
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
		out, sum, err := r.run(t, r.steps)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got[r.name] = counts{out.Msgs, out.Bytes, out.ModelTime, math.Float64bits(sum)}
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

// TestStepAllocs: a warm step of each of TestExactCounts' runs allocates
// at most the ceiling testdata/step_allocs.json records for it — the
// heap objects of all four ranks, counted as the difference between a
// run of 2S steps and one of S steps, over S, so set-up cancels out (S
// is four times the run's pinned step count).
// Each figure is the least of three such pairs: a scheduler's stray
// allocation (a mailbox's growth, a late timer) cannot fail it, a
// statement that allocates every step does.  The ceilings leave room
// for -race builds, whose sync.Pool drops items (adi_ckpt_tcp measures
// about 54 plain, 59-61 under -race); they may only shrink.
func TestStepAllocs(t *testing.T) {
	raw, err := os.ReadFile("testdata/step_allocs.json")
	if err != nil {
		t.Fatal(err)
	}
	var ceil map[string]float64
	if err := json.Unmarshal(raw, &ceil); err != nil {
		t.Fatal(err)
	}
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	got := map[string]float64{}
	for _, r := range countRuns {
		s, best := 4*r.steps, math.Inf(1)
		for range 3 {
			var n [2]uint64
			for i, steps := range [2]int{s, 2 * s} {
				m0 := mallocs()
				if _, _, err := r.run(t, steps); err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
				n[i] = mallocs() - m0
			}
			best = min(best, (float64(n[1])-float64(n[0]))/float64(s))
		}
		got[r.name] = best
		if c, ok := ceil[r.name]; !ok || best > c {
			t.Errorf("%s: %.2f allocations a warm step, want <= %v", r.name, best, c)
		}
	}
	if len(ceil) != len(countRuns) {
		t.Errorf("testdata/step_allocs.json has %d entries, want %d", len(ceil), len(countRuns))
	}
	if t.Failed() {
		b, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("measured:\n%s", b)
	}
}
