package apps

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// runPICFlushEvery runs cfg with the imbalance reduced on every step, the
// reference the batched reduction must reproduce.
func runPICFlushEvery(t *testing.T, cfg PICConfig) PICResult {
	t.Helper()
	testFlushEvery = true
	defer func() { testFlushEvery = false }()
	res, err := RunPIC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// picFlushes is the number of batched reductions a run of steps
// 0..steps-1 makes: one at every rebalance check, at the last step and
// after every checkpoint.
func picFlushes(cfg PICConfig) int {
	n := 0
	for k := 1; k <= cfg.Steps; k++ {
		if k%cfg.RebalanceEvery == 0 || k == cfg.Steps || cfg.savesAfter(k) {
			n++
		}
	}
	return n
}

// samePICResult fails unless got and want carry bit-identical series,
// summaries, field, redistributions and particle counts.
func samePICResult(t *testing.T, got, want PICResult) {
	t.Helper()
	bits := func(v []float64) []uint64 {
		b := make([]uint64, len(v))
		for i, x := range v {
			b[i] = math.Float64bits(x)
		}
		return b
	}
	if g, w := fmt.Sprint(bits(got.ImbalanceSeries)), fmt.Sprint(bits(want.ImbalanceSeries)); g != w {
		t.Errorf("ImbalanceSeries %v, want %v", got.ImbalanceSeries, want.ImbalanceSeries)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"MeanImbalance", got.MeanImbalance, want.MeanImbalance},
		{"PeakImbalance", got.PeakImbalance, want.PeakImbalance},
		{"FinalImbalance", got.FinalImbalance, want.FinalImbalance},
		{"FieldChecksum", got.FieldChecksum, want.FieldChecksum},
		{"ParticlesEnd", got.ParticlesEnd, want.ParticlesEnd},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("%s %v, want %v", f.name, f.got, f.want)
		}
	}
	if got.Redistributions != want.Redistributions {
		t.Errorf("Redistributions %d, want %d", got.Redistributions, want.Redistributions)
	}
}

// TestPICBatchedImbalanceBitExact: reducing the per-step particle sums
// in one batch per rebalance check, last step or checkpoint gives the
// series, the rebalance decisions and the field of a reduction on every
// step bit for bit, and saves exactly one reduce and one broadcast —
// 2(P−1) messages — on every other step.
func TestPICBatchedImbalanceBitExact(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		for _, p := range []int{3, 4} {
			for _, reb := range []bool{false, true} {
				for _, ckptEvery := range []int{0, 7} {
					name := fmt.Sprintf("tcp=%v/P=%d/rebalance=%v/ckpt=%d", tcp, p, reb, ckptEvery)
					t.Run(name, func(t *testing.T) {
						cfg := PICConfig{
							NCell: 47, Steps: 25, P: p, Rebalance: reb, RebalanceEvery: 10,
							DriftFrac: 0.3, InitPerCell: 40, WorkPerParticle: 1,
							Runtime: Runtime{UseTCP: tcp},
						}
						if ckptEvery > 0 {
							cfg.CkptDir, cfg.CkptEvery = t.TempDir(), ckptEvery
						}
						got, err := RunPIC(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if ckptEvery > 0 {
							cfg.CkptDir = t.TempDir()
						}
						want := runPICFlushEvery(t, cfg)
						samePICResult(t, got, want)
						if reb && got.Redistributions < 2 {
							t.Errorf("%d redistributions: the run does not exercise the rebalance check", got.Redistributions)
						}
						saved := int64(2 * (p - 1) * (cfg.Steps - picFlushes(cfg)))
						if got.Msgs != want.Msgs-saved {
							t.Errorf("Msgs %d, want %d − %d = %d", got.Msgs, want.Msgs, saved, want.Msgs-saved)
						}
					})
				}
			}
		}
	}
}

// TestPICBatchedImbalanceRecover: with checkpoints every 7 steps and a
// rebalance check every 10, a Recover run resumes mid-batch and its
// series from the resumed step on equals the uninterrupted run's.
func TestPICBatchedImbalanceRecover(t *testing.T) {
	cfg := PICConfig{
		NCell: 47, Steps: 25, P: 4, Rebalance: true, RebalanceEvery: 10,
		DriftFrac: 0.3, InitPerCell: 40, WorkPerParticle: 1,
	}
	whole, err := RunPIC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := cfg
	first.Steps = 18 // checkpoints after steps 7 and 14
	first.CkptDir, first.CkptEvery = t.TempDir(), 7
	if _, err := RunPIC(first); err != nil {
		t.Fatal(err)
	}
	rec := cfg
	rec.CkptDir, rec.CkptEvery, rec.Recover = first.CkptDir, 7, true
	res, err := RunPIC(rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedIter != 13 {
		t.Fatalf("resumed after iteration %d, want 13", res.ResumedIter)
	}
	for it := 14; it < cfg.Steps; it++ {
		if g, w := res.ImbalanceSeries[it], whole.ImbalanceSeries[it]; math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("step %d: imbalance %v after recovery, %v uninterrupted", it, g, w)
		}
	}
	if res.FieldChecksum != whole.FieldChecksum || res.Redistributions == 0 {
		t.Errorf("recovered field %v (%d redistributions), uninterrupted %v", res.FieldChecksum, res.Redistributions, whole.FieldChecksum)
	}
}

// TestPICBatchedImbalanceOnlineRecover: a rank killed mid-batch loses
// its pending sums, and the survivors' replay from the last checkpoint
// recomputes them.  No rebalance check falls in the run, so every step
// before that checkpoint is in the series only because a flush preceded
// each checkpoint.
func TestPICBatchedImbalanceOnlineRecover(t *testing.T) {
	cfg := PICConfig{
		NCell: 32, Steps: 16, P: 4, RebalanceEvery: 20, InitPerCell: 16,
		Runtime: Runtime{
			CkptEvery:     3,
			CommTimeout:   150 * time.Millisecond,
			CommRetries:   2,
			Liveness:      testLiveness(),
			OnlineRecover: true,
		},
	}
	after := killAfter(t, 1, 9, 0, func() error {
		dry := cfg
		dry.CkptDir = t.TempDir()
		dry.Integrity = true // offers framed, as under the fault plan
		_, err := RunPIC(dry)
		return err
	})
	cfg.CkptDir = t.TempDir()
	cfg.Fault = fmt.Sprintf("drop,rank=1,after=%d", after)
	res, err := RunPIC(cfg)
	if err != nil {
		t.Fatalf("online PIC recovery: %v", err)
	}
	// Heartbeats make the kill point approximate: any replay from a
	// checkpoint will do.
	if res.FinalEpoch < 1 || res.ResumedIter < 2 {
		t.Fatalf("finished on epoch %d resumed after iteration %d; want a kill replayed from a checkpoint", res.FinalEpoch, res.ResumedIter)
	}
	for it, v := range res.ImbalanceSeries {
		if v < 1 {
			t.Errorf("step %d: imbalance %v, never reduced", it, v)
		}
	}
	if res.ParticlesEnd != float64(32*16) {
		t.Fatalf("particles not conserved through online recovery: %v, want %v", res.ParticlesEnd, 32*16)
	}
}
