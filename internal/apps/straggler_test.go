package apps

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/machine"
)

// stragglerCfg is the shared defense setup of the matrix: a fast-tick
// scorer (4-observation window, 2× degraded threshold, minimum
// hysteresis) with an 8× injected straggler on physical rank 2.
func stragglerCfg(policy string) StragglerConfig {
	return StragglerConfig{
		HealthWindow:  4,
		DegradedRatio: 2,
		Hysteresis:    2,
		Policy:        policy,
		CheckAfter:    3,
		SlowRank:      2,
		SlowFactor:    8,
	}
}

// failf fails t with the message and what the health scorer of the
// run's final view rank 0 saw: each rank's class, slowdown, observation
// count and EverDegraded.  A straggler verdict is a judgement on a
// wall-clock signal, so a wrong one is read from these inputs.
func failf(t *testing.T, out Outcome, format string, args ...any) {
	t.Helper()
	saw := ""
	for _, rr := range out.Health {
		saw += fmt.Sprintf("\n  %v, ever degraded %v", rr, rr.EverDegraded)
	}
	if saw == "" {
		saw = " no health report"
	}
	t.Fatalf(format+"\nscorer saw:%s", append(args, saw)...)
}

// stragglerADI is the shared shape of the mitigation matrix: a 4-rank
// dynamic ADI with an injected 8× straggler on rank 2.  The health
// scorer must classify it from the boundary-gathered work reports, the
// configured policy must fire at an iteration boundary, and the result
// must still match the serial reference bit-for-bit.
func stragglerADI(t *testing.T, useTCP bool, policy string) ADIResult {
	t.Helper()
	cfg := ADIConfig{
		NX: 64, NY: 64, Iters: 40, P: 4, Mode: ADIDynamic, Validate: true,
		Runtime: Runtime{
			CkptDir: t.TempDir(), CkptEvery: 4,
			UseTCP:      useTCP,
			CommTimeout: 250 * time.Millisecond,
			CommRetries: 2,
			Straggler:   stragglerCfg(policy),
		},
	}
	res, err := RunADI(cfg)
	if err != nil {
		failf(t, res.Outcome, "straggler run (tcp=%v policy=%s): %v", useTCP, policy, err)
	}
	if res.DegradedRank != 2 {
		failf(t, res.Outcome, "DegradedRank = %d, want the injected straggler 2", res.DegradedRank)
	}
	if res.Mitigation != policy {
		failf(t, res.Outcome, "Mitigation = %q, want %q", res.Mitigation, policy)
	}
	if res.MaxErr != 0 {
		failf(t, res.Outcome, "mitigated result deviates from serial reference: MaxErr = %g, want bit-for-bit 0", res.MaxErr)
	}
	return res
}

// TestStragglerADIRebalanceChan: the rebalance policy re-divides the
// block bounds by measured speed and the run finishes on the original
// membership, bit-exact.
func TestStragglerADIRebalanceChan(t *testing.T) {
	res := stragglerADI(t, false, "rebalance")
	if res.FinalEpoch != 0 {
		failf(t, res.Outcome, "rebalance moved the membership epoch to %d", res.FinalEpoch)
	}
	if len(res.Drained) != 0 {
		failf(t, res.Outcome, "rebalance drained ranks: %v", res.Drained)
	}
}

// TestStragglerADIDrainChan: the drain policy checkpoints, voluntarily
// shrinks the membership by the straggler, and the 3 survivors replay
// onto epoch 1 and still match the reference bit-for-bit.
func TestStragglerADIDrainChan(t *testing.T) {
	res := stragglerADI(t, false, "drain")
	if res.FinalEpoch < 1 {
		failf(t, res.Outcome, "drain finished on epoch %d, want a membership transition", res.FinalEpoch)
	}
	if len(res.Drained) != 1 || res.Drained[0] != 2 {
		failf(t, res.Outcome, "Drained = %v, want [2]", res.Drained)
	}
}

// TestStragglerADIRebalanceTCP / TestStragglerADIDrainTCP: the same
// detection and mitigation over real sockets.
func TestStragglerADIRebalanceTCP(t *testing.T) {
	res := stragglerADI(t, true, "rebalance")
	if res.FinalEpoch != 0 {
		failf(t, res.Outcome, "rebalance moved the membership epoch to %d", res.FinalEpoch)
	}
}

func TestStragglerADIDrainTCP(t *testing.T) {
	res := stragglerADI(t, true, "drain")
	if res.FinalEpoch < 1 {
		failf(t, res.Outcome, "drain finished on epoch %d, want a membership transition", res.FinalEpoch)
	}
	if len(res.Drained) != 1 || res.Drained[0] != 2 {
		failf(t, res.Outcome, "Drained = %v, want [2]", res.Drained)
	}
}

// TestStragglerObserveOnly: with the policy off, the scorer still
// classifies the injected straggler but nothing is mitigated — the
// do-nothing baseline of the defense.
func TestStragglerObserveOnly(t *testing.T) {
	res, err := RunADI(ADIConfig{
		NX: 64, NY: 64, Iters: 30, P: 4, Mode: ADIDynamic, Validate: true,
		Runtime: Runtime{
			CommTimeout: 250 * time.Millisecond,
			CommRetries: 2,
			Straggler:   stragglerCfg("off"),
		},
	})
	if err != nil {
		failf(t, res.Outcome, "observe-only run: %v", err)
	}
	if res.DegradedRank != 2 {
		failf(t, res.Outcome, "DegradedRank = %d, want 2", res.DegradedRank)
	}
	if res.Mitigation != "" || res.FinalEpoch != 0 {
		failf(t, res.Outcome, "observe-only run mitigated: %q, epoch %d", res.Mitigation, res.FinalEpoch)
	}
	if res.MaxErr != 0 {
		failf(t, res.Outcome, "MaxErr = %g", res.MaxErr)
	}
}

// TestStragglerPICRebalance: the weighted balance() divides particles —
// not cells — by measured speed: the 8× rank ends with the smallest
// particle share, and conservation holds.
func TestStragglerPICRebalance(t *testing.T) {
	res, err := RunPIC(PICConfig{
		NCell: 64, Steps: 30, P: 4, Rebalance: true, RebalanceEvery: 5,
		InitPerCell: 32, WorkPerParticle: 400,
		Runtime: Runtime{
			CommTimeout: 250 * time.Millisecond,
			CommRetries: 2,
			Straggler:   stragglerCfg("rebalance"),
		},
	})
	if err != nil {
		failf(t, res.Outcome, "PIC straggler run: %v", err)
	}
	if res.DegradedRank != 2 {
		failf(t, res.Outcome, "DegradedRank = %d, want 2", res.DegradedRank)
	}
	if res.Mitigation != "rebalance" {
		failf(t, res.Outcome, "Mitigation = %q, want rebalance", res.Mitigation)
	}
	if res.ParticlesEnd != res.ParticlesStart {
		failf(t, res.Outcome, "particles not conserved across the weighted rebalance: %v -> %v",
			res.ParticlesStart, res.ParticlesEnd)
	}
	if res.Redistributions == 0 {
		failf(t, res.Outcome, "weighted rebalance never redistributed")
	}
}

// TestStragglerPICDrain: the drain policy shrinks PIC's membership; the
// survivors replay the checkpoint and conservation still holds.
func TestStragglerPICDrain(t *testing.T) {
	res, err := RunPIC(PICConfig{
		NCell: 64, Steps: 30, P: 4, Rebalance: true, RebalanceEvery: 5,
		InitPerCell: 32, WorkPerParticle: 400,
		Runtime: Runtime{
			CkptDir: t.TempDir(), CkptEvery: 2,
			CommTimeout: 250 * time.Millisecond,
			CommRetries: 2,
			Straggler:   stragglerCfg("drain"),
		},
	})
	if err != nil {
		failf(t, res.Outcome, "PIC drain run: %v", err)
	}
	if res.FinalEpoch < 1 {
		failf(t, res.Outcome, "drain finished on epoch %d", res.FinalEpoch)
	}
	if len(res.Drained) != 1 || res.Drained[0] != 2 {
		failf(t, res.Outcome, "Drained = %v, want [2]", res.Drained)
	}
	if res.ParticlesEnd != float64(64*32) {
		failf(t, res.Outcome, "particles not conserved across the drain: %v, want %v", res.ParticlesEnd, 64*32)
	}
}

// TestStragglerSmoothingDrain: the stencil's drain-only defense — the
// straggler leaves, the survivors replay the double-buffer parity, and
// the result stays within float tolerance of the serial reference.
func TestStragglerSmoothingDrain(t *testing.T) {
	res, err := RunSmoothing(SmoothConfig{
		N: 64, Steps: 30, P: 4, Mode: SmoothColumns, Validate: true,
		Runtime: Runtime{
			CkptDir: t.TempDir(), CkptEvery: 2,
			CommTimeout: 250 * time.Millisecond,
			CommRetries: 2,
			Straggler:   stragglerCfg("drain"),
		},
	})
	if err != nil {
		failf(t, res.Outcome, "smoothing drain run: %v", err)
	}
	if res.DegradedRank != 2 {
		failf(t, res.Outcome, "DegradedRank = %d, want 2", res.DegradedRank)
	}
	if res.FinalEpoch < 1 {
		failf(t, res.Outcome, "drain finished on epoch %d", res.FinalEpoch)
	}
	if len(res.Drained) != 1 || res.Drained[0] != 2 {
		failf(t, res.Outcome, "Drained = %v, want [2]", res.Drained)
	}
	if res.MaxErr > 1e-12 {
		failf(t, res.Outcome, "MaxErr = %g after the drain", res.MaxErr)
	}
}

// TestStragglerConfigValidation: misconfigurations are named errors up
// front, not mid-run surprises.
func TestStragglerConfigValidation(t *testing.T) {
	base := ADIConfig{NX: 32, NY: 32, Iters: 4, P: 4, Mode: ADIDynamic}
	cases := []struct {
		name string
		mut  func(*ADIConfig)
	}{
		{"policy without window", func(c *ADIConfig) {
			c.Straggler = StragglerConfig{Policy: "drain"}
		}},
		{"mitigation without timeout", func(c *ADIConfig) {
			c.Straggler = StragglerConfig{HealthWindow: 4, Policy: "rebalance"}
		}},
		{"drain without ckpt", func(c *ADIConfig) {
			c.CommTimeout = 250 * time.Millisecond
			c.Straggler = StragglerConfig{HealthWindow: 4, Policy: "drain"}
		}},
		{"unknown policy", func(c *ADIConfig) {
			c.CommTimeout = 250 * time.Millisecond
			c.Straggler = StragglerConfig{HealthWindow: 4, Policy: "panic"}
		}},
		{"unknown policy without window", func(c *ADIConfig) {
			c.Straggler = StragglerConfig{Policy: "panic"}
		}},
		{"online recover without ckpt", func(c *ADIConfig) {
			c.CommTimeout = 250 * time.Millisecond
			c.OnlineRecover = true
		}},
		{"recover without ckpt", func(c *ADIConfig) {
			c.Recover = true
		}},
		{"static mode", func(c *ADIConfig) {
			c.CommTimeout = 250 * time.Millisecond
			c.Mode = ADIStaticCols
			c.Straggler = StragglerConfig{HealthWindow: 4, Policy: "rebalance"}
		}},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := RunADI(cfg); err == nil {
			t.Errorf("%s: RunADI accepted an invalid straggler config", tc.name)
		}
	}
	if _, err := RunSmoothing(SmoothConfig{
		N: 32, Steps: 4, P: 4, Mode: SmoothColumns,
		Runtime: Runtime{
			CkptDir:     t.TempDir(),
			CommTimeout: 250 * time.Millisecond,
			Straggler:   StragglerConfig{HealthWindow: 4, Policy: "rebalance"},
		},
	}); err == nil {
		t.Error("smoothing accepted the rebalance policy")
	}
}

// TestStragglerRejectsElastic: a mitigating policy does not combine with
// a Join (a joiner's scorer starts empty); observing does.
func TestStragglerRejectsElastic(t *testing.T) {
	rt := Runtime{CkptDir: t.TempDir(), CommTimeout: 250 * time.Millisecond, Join: 1}
	for _, policy := range []string{"rebalance", "drain"} {
		rt.Straggler = stragglerCfg(policy)
		if err := rt.validate(); err == nil {
			t.Errorf("Join with the %s policy was accepted", policy)
		}
	}
	rt.Straggler = stragglerCfg("off")
	if err := rt.validate(); err != nil {
		t.Errorf("Join with observe-only scoring: %v", err)
	}
}

// TestStragglerDecisionFromViewRankZero: the boundary collective hands
// every member view rank 0's decision, also when the members' own scorers
// disagree (here every other member's history names rank 3, rank 0's
// rank 2).
func TestStragglerDecisionFromViewRankZero(t *testing.T) {
	const np = 4
	m := machine.New(np)
	defer m.Close()
	sc := stragglerCfg("drain")
	views := make([]int, np)
	speeds := make([][]float64, np)
	err := m.Run(func(ctx *machine.Ctx) error {
		h := health.New(np, sc.healthConfig())
		slow := 3
		if ctx.Rank() == 0 {
			slow = 2
		}
		for seq := int64(1); seq <= 4; seq++ {
			for r := range np {
				secs := float64(seq)
				if r == slow {
					secs *= 8
				}
				h.Observe(r, seq, float64(seq), secs)
			}
		}
		ctx.ReportWork(1, time.Millisecond)
		dec, view, sp, err := observeHealth(ctx, sc, h, 5, true)
		if err != nil {
			return err
		}
		if dec != health.Drain {
			t.Errorf("rank %d: decision %v, want drain", ctx.Rank(), dec)
		}
		views[ctx.Rank()], speeds[ctx.Rank()] = view, sp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range np {
		if views[r] != 2 || !slices.Equal(speeds[r], speeds[0]) {
			t.Errorf("rank %d: drains view rank %d at speeds %v, want 2 at %v", r, views[r], speeds[r], speeds[0])
		}
	}
}
