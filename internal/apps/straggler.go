// Straggler defense wiring shared by the application harnesses: a
// StragglerConfig each app embeds, the compute-time injection that makes
// a chosen rank measurably slow, and the per-boundary health collective
// (work counters → every member's scorer; view rank 0's mitigation
// decision → every member) the step loop turns into a rebalance or a
// drain request.
package apps

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/machine"
)

// StragglerConfig parameterizes an app run's straggler defense.  The
// zero value disables everything.
type StragglerConfig struct {
	// HealthWindow enables health scoring when > 0: every member runs
	// the EWMA throughput scorer (internal/health) over this many
	// observations, one per iteration boundary, fed by every member's
	// cumulative work counters (machine.Ctx.ReportWork).
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
	// boundaries of observations first).
	CheckAfter int
	// SlowRank/SlowFactor inject a synthetic straggler for experiments:
	// the given physical rank's compute sections are stretched by the
	// factor (a sleep of the extra time).  Injection is active only when
	// SlowFactor > 1.
	SlowRank   int
	SlowFactor float64
}

// Enabled reports whether health scoring is on at all.
func (sc StragglerConfig) Enabled() bool { return sc.HealthWindow > 0 }

// acts reports whether the policy acts on a Degraded rank (as opposed
// to observing only).
func (sc StragglerConfig) acts() bool { return sc.Policy == "rebalance" || sc.Policy == "drain" }

// mitigating reports whether scoring is on and the policy acts on its
// verdict.
func (sc StragglerConfig) mitigating() bool { return sc.Enabled() && sc.acts() }

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
func (sc StragglerConfig) validate(commTimeout time.Duration, ckptDir string) error {
	switch sc.Policy {
	case "", "off", "rebalance", "drain":
	default:
		return fmt.Errorf("apps: unknown straggler policy %q (want off, rebalance, or drain)", sc.Policy)
	}
	if !sc.Enabled() {
		if sc.acts() {
			return fmt.Errorf("apps: straggler policy %q needs HealthWindow > 0 (nothing is measured)", sc.Policy)
		}
		return nil
	}
	if sc.mitigating() && commTimeout <= 0 {
		return errors.New("apps: straggler mitigation requires a CommTimeout")
	}
	if sc.Policy == "drain" && ckptDir == "" {
		return errors.New("apps: straggler drain requires a CkptDir (survivors replay the checkpoint onto the shrunken view)")
	}
	return nil
}

// stopwatch times a step's compute sections for the health scorer:
// start and stop bracket each section, the injected straggler's sections
// are stretched (a sleep of the extra time), and done hands the step's
// busy time and work units to the scorer.  Only compute sections are
// timed — barrier and communication waits must not count as work, or
// every rank waiting on the straggler would itself look slow.  With
// scoring off and no injection it reads no clock.
type stopwatch struct {
	ctx  *machine.Ctx
	sc   StragglerConfig
	t0   time.Time
	busy time.Duration
}

func (w *stopwatch) on() bool { return w.sc.Enabled() || w.sc.SlowFactor > 1 }

func (w *stopwatch) start() {
	if w.on() {
		w.t0 = time.Now()
	}
}

func (w *stopwatch) stop() {
	if !w.on() {
		return
	}
	el := time.Since(w.t0)
	if w.sc.SlowFactor > 1 && w.ctx.PhysRank() == w.sc.SlowRank {
		extra := time.Duration(float64(el) * (w.sc.SlowFactor - 1))
		time.Sleep(extra)
		el += extra
	}
	w.busy += el
}

// done reports the step's busy time as units of work.
func (w *stopwatch) done(units float64) {
	if w.sc.Enabled() {
		w.ctx.ReportWork(units, w.busy)
	}
}

// report hands one interpreted statement's busy time to the health
// scorer as one unit of work, SlowFactor× on SlowRank: unlike the
// stopwatch's sleep, a real mid-statement stall would also inflate the
// other ranks' one-sided fetch waits and mask the straggler.
func (sc StragglerConfig) report(ctx *machine.Ctx, busy time.Duration) {
	if sc.SlowFactor > 1 && ctx.PhysRank() == sc.SlowRank {
		busy = time.Duration(float64(busy) * sc.SlowFactor)
	}
	ctx.ReportWork(1, busy)
}

// localElems counts the rank's local allocation of v — the work units a
// sweep over it performs.
func localElems(ctx *machine.Ctx, v *core.Array) float64 {
	n := 1
	for _, e := range v.Local(ctx).AllocShape() {
		n *= e
	}
	return float64(n)
}

// observeHealth is one iteration boundary's health collective: every
// member contributes its cumulative ReportWork counters to one
// AllgatherInts and folds every member's into its own scorer as
// observation seq.  When decide is set on view rank 0, it appends the
// straggler decision its scorer held before this boundary's observation
// (health.Decide), and every member returns that one decision — the
// same on every member by construction, whatever each member's own scorer
// holds (a death mid-gather can leave one member an observation ahead of
// another).  Hold when rank 0 appended none.
func observeHealth(ctx *machine.Ctx, sc StragglerConfig, h *health.Scorer, seq int64, decide bool) (health.Decision, int, []float64, error) {
	units, busy := ctx.Work()
	mine := []int{int(math.Float64bits(units)), int(busy)}
	if decide && ctx.Rank() == 0 {
		members := make([]int, ctx.NP())
		for i := range members {
			members[i] = ctx.PhysOf(i)
		}
		if dec, view, speeds := health.Decide(sc.Policy, h, members); dec != health.Hold {
			mine = append(mine, int(dec), view)
			for _, sp := range speeds {
				mine = append(mine, int(math.Float64bits(sp)))
			}
		}
	}
	all, err := ctx.Comm().AllgatherInts(mine)
	if err != nil {
		return health.Hold, -1, nil, err
	}
	for i, w := range all {
		if len(w) != 2 && (i != 0 || len(w) != 4+len(all)) {
			return health.Hold, -1, nil, fmt.Errorf("apps: health report of view rank %d has %d values", i, len(w))
		}
		h.Observe(ctx.PhysOf(i), seq, math.Float64frombits(uint64(w[0])), time.Duration(w[1]).Seconds())
	}
	w := all[0]
	if len(w) == 2 {
		return health.Hold, -1, nil, nil
	}
	speeds := make([]float64, len(all))
	for i := range speeds {
		speeds[i] = math.Float64frombits(uint64(w[4+i]))
	}
	return health.Decision(w[2]), w[3], speeds, nil
}
