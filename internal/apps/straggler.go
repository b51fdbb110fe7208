// Straggler defense wiring shared by the application harnesses: a
// StragglerConfig each app embeds, the compute-time injection that makes
// a chosen rank measurably slow, the agreed per-boundary mitigation
// decision (health report → scale policy → broadcast) the step loop
// turns into a rebalance or a drain request.
package apps

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/machine"
	"repro/internal/scale"
)

// StragglerConfig parameterizes an app run's straggler defense.  The
// zero value disables everything.
type StragglerConfig struct {
	// HealthWindow enables health scoring when > 0: the machine runs the
	// EWMA throughput scorer (machine.WithHealth) over this many
	// observations, fed by the ranks' per-step work reports piggybacked
	// on heartbeat traffic.  Requires Liveness.
	HealthWindow int
	// DegradedRatio is the slowdown (vs the median rank) at which a rank
	// is classified Degraded (default 2).
	DegradedRatio float64
	// Hysteresis is the consecutive-classification streak required
	// before a rank's class flips (default 3, min 2): a single slow step
	// never reclassifies.
	Hysteresis int
	// Policy selects what to do about a Degraded rank at an iteration
	// boundary:
	//
	//	""/"off"    observe only — score health, mitigate nothing;
	//	"rebalance" re-divide the block bounds in proportion to measured
	//	            speeds (B_BLOCK with the straggler's block shrunk);
	//	"drain"     checkpoint and voluntarily drain the straggler from
	//	            the membership (scale-in); survivors replay onto the
	//	            shrunken view.
	Policy string
	// CheckAfter is the first iteration boundary at which the members
	// evaluate the mitigation policy (default 2 — the scorer needs a few
	// heartbeats of observations first).
	CheckAfter int
	// SlowRank/SlowFactor inject a synthetic straggler for experiments:
	// the given physical rank's compute sections are stretched by the
	// factor (a sleep of at least stallQuantum).  Injection is active
	// only when SlowFactor > 1.
	SlowRank   int
	SlowFactor float64
}

// Enabled reports whether health scoring is on at all.
func (sc StragglerConfig) Enabled() bool { return sc.HealthWindow > 0 }

// mitigating reports whether the policy acts on a Degraded rank (as
// opposed to observing only).
func (sc StragglerConfig) mitigating() bool { return sc.Enabled() && sc.decide() != scale.Hold }

func (sc StragglerConfig) checkAfter() int {
	if sc.CheckAfter <= 0 {
		return 2
	}
	return sc.CheckAfter
}

func (sc StragglerConfig) healthConfig() health.Config {
	return health.Config{
		Window:        sc.HealthWindow,
		DegradedRatio: sc.DegradedRatio,
		Hysteresis:    sc.Hysteresis,
	}
}

// validate checks the prerequisites the chosen policy needs from the
// surrounding app config.
func (sc StragglerConfig) validate(haveLiveness bool, commTimeout time.Duration, ckptDir string) error {
	if !sc.Enabled() {
		if sc.decide() != scale.Hold {
			return fmt.Errorf("apps: straggler policy %q needs HealthWindow > 0 (nothing is measured)", sc.Policy)
		}
		return nil
	}
	switch sc.Policy {
	case "", "off", "rebalance", "drain":
	default:
		return fmt.Errorf("apps: unknown straggler policy %q (want off, rebalance, or drain)", sc.Policy)
	}
	if !haveLiveness {
		return errors.New("apps: straggler defense requires Liveness (work reports ride on heartbeats)")
	}
	if sc.mitigating() && commTimeout <= 0 {
		return errors.New("apps: straggler mitigation requires a CommTimeout")
	}
	if sc.Policy == "drain" && ckptDir == "" {
		return errors.New("apps: straggler drain requires a CkptDir (survivors replay the checkpoint onto the shrunken view)")
	}
	return nil
}

// timed runs a compute section, stretches it on the injected straggler,
// and returns the (stretched) elapsed time the caller reports as busy
// time.  Only compute sections go through timed — barrier and
// communication waits must not count as work, or every rank waiting on
// the straggler would itself look slow.
//
// The reported time is stretched by exactly SlowFactor; the stall that
// pays for it lasts at least stallQuantum.
func (sc StragglerConfig) timed(ctx *machine.Ctx, compute func()) time.Duration {
	t0 := time.Now()
	compute()
	el := time.Since(t0)
	if sc.SlowFactor > 1 && ctx.PhysRank() == sc.SlowRank {
		extra := time.Duration(float64(el) * (sc.SlowFactor - 1))
		time.Sleep(max(extra, stallQuantum))
		el += extra
	}
	return el
}

// report hands one interpreted statement's busy time to the health
// scorer as one unit of work, SlowFactor× on SlowRank: unlike timed's
// stall, a real mid-statement stall would also inflate the other ranks'
// one-sided fetch waits and mask the straggler.
func (sc StragglerConfig) report(ctx *machine.Ctx, busy time.Duration) {
	if sc.SlowFactor > 1 && ctx.PhysRank() == sc.SlowRank {
		busy = time.Duration(float64(busy) * sc.SlowFactor)
	}
	ctx.ReportWork(1, busy)
}

// stallQuantum is the shortest stall the injected straggler takes.  A
// time.Sleep of 10 µs to 1 ms already parks for about a millisecond (the
// runtime's poller waits in whole milliseconds) while a shorter one
// returns in microseconds, so without the floor a sweep that gets faster
// drops off that cliff and the injected rank stops holding anyone up:
// the run is over before the heartbeat-fed scorer has its observations.
const stallQuantum = time.Millisecond

// localElems counts the rank's local allocation of v — the work units a
// sweep over it performs.
func localElems(ctx *machine.Ctx, v *core.Array) float64 {
	n := 1
	for _, e := range v.Local(ctx).AllocShape() {
		n *= e
	}
	return float64(n)
}

// decideStraggler takes one iteration boundary's mitigation decision,
// collectively.  Rank 0 consults the health scorer and the configured
// policy; the decision, the straggler's view rank, and the measured
// per-rank speeds are broadcast so every member acts identically (and
// computes identical weighted bounds).  Returns Hold when no rank is
// classified Degraded yet — the policy simply re-checks at the next
// boundary.
func decideStraggler(ctx *machine.Ctx, sc StragglerConfig) (scale.Decision, int, []float64, error) {
	var vals []int
	if ctx.Rank() == 0 {
		np := ctx.NP()
		vals = make([]int, 2+np)
		vals[0], vals[1] = int(scale.Hold), -1
		for i := range vals[2:] {
			vals[2+i] = 1e6 // nominal speed
		}
		if view := ctx.DegradedMember(); view >= 0 && np > 1 {
			vals[0], vals[1] = int(sc.decide()), view
			for i, sp := range ctx.Machine().Health().Speeds(ctx.Members()) {
				vals[2+i] = int(sp * 1e6)
			}
		}
	}
	out, err := ctx.Comm().BcastInts(0, vals)
	if err != nil {
		return scale.Hold, -1, nil, err
	}
	speeds := make([]float64, len(out)-2)
	for i := range speeds {
		speeds[i] = float64(out[2+i]) / 1e6
		if speeds[i] <= 0 {
			speeds[i] = 1
		}
	}
	return scale.Decision(out[0]), out[1], speeds, nil
}

// decide maps the configured policy to its decision for a Degraded rank:
// Hold for "" and "off", which observe only.
func (sc StragglerConfig) decide() scale.Decision {
	switch sc.Policy {
	case "rebalance":
		return scale.Rebalance
	case "drain":
		return scale.Drain
	}
	return scale.Hold
}
