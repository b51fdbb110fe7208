// Package scale implements the cost-driven grow/shrink policy of the
// elastic runtime: given a measured per-step cost breakdown, it decides
// whether resizing the processor set pays for itself before the run
// ends.
//
// The model extends the paper's §4 runtime distribution selection —
// pick the mapping with the lower modeled cost on the executing
// machine — to the *size* of the executing machine.  A step's cost is
// split into three differently-scaling components:
//
//   - Compute: the parallelizable work; scales with np/npNew,
//   - Comm: boundary/pipeline communication; modeled np-invariant (the
//     dominant ghost and pipeline message counts per processor do not
//     change with np for the §4 applications),
//   - Idle: barrier and imbalance wait; scales with npNew/np (more
//     processors wait on the same critical path).
//
// A resize additionally pays the one-time redistribution cost R of
// moving every live array onto the new view, so the policy recommends
// the resize iff the remaining steps amortize it:
//
//	stepsLeft × (tCur − tNew) > R
//
// Everything here is pure arithmetic over numbers the caller measured
// (typically from a run's trace, as RedistCost reads it), so the
// policy is unit-testable without a machine.
package scale

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// PerStep is a measured per-step cost breakdown at the current
// processor count, in (virtual or wall) seconds.
type PerStep struct {
	Compute float64 // parallelizable work per step
	Comm    float64 // communication per step (np-invariant)
	Idle    float64 // barrier/imbalance wait per step
}

// Total returns the per-step seconds at the measuring processor count.
func (s PerStep) Total() float64 { return s.Compute + s.Comm + s.Idle }

// Params is one grow/shrink question: resizing from NP to NPNew with
// StepsLeft iterations remaining, given the measured Step breakdown
// (at NP) and the one-time redistribution cost Redist of the resize.
type Params struct {
	NP, NPNew int
	StepsLeft int
	Step      PerStep
	Redist    float64
}

// Decision is the policy's recommendation.
type Decision int

// Recommendations.
const (
	// Hold keeps the current processor count: the resize would not
	// amortize (or would slow the run down outright).
	Hold Decision = iota
	// Grow admits the pending joiner(s): the remaining steps win back
	// more than the redistribution costs.
	Grow
	// Shrink releases processors: fewer ranks run the remaining steps
	// cheaper (communication/idle dominated regime).
	Shrink
	// Rebalance keeps every rank but re-divides the work in proportion
	// to measured speeds — the degraded-mode mitigation for a straggler
	// worth keeping.
	Rebalance
	// Drain voluntarily releases the straggler: P−1 healthy ranks beat P
	// with one slow.
	Drain
)

func (d Decision) String() string {
	switch d {
	case Grow:
		return "grow"
	case Shrink:
		return "shrink"
	case Rebalance:
		return "rebalance"
	case Drain:
		return "drain"
	}
	return "hold"
}

// Advice reports the recommendation with the numbers behind it.
type Advice struct {
	Decision Decision
	// StepCur and StepNew are the modeled per-step seconds at NP and
	// NPNew.
	StepCur, StepNew float64
	// Gain is StepCur − StepNew (negative: the resize loses per step).
	Gain float64
	// BreakEven is the number of steps needed to amortize Redist at
	// Gain per step (-1 when Gain <= 0: no horizon amortizes it).
	BreakEven int
	// Net is the projected remaining-time saving of resizing now:
	// StepsLeft×Gain − Redist.  Positive iff the resize pays.
	Net float64
}

func (a Advice) String() string {
	return fmt.Sprintf("%s (step %.3gms -> %.3gms, gain %.3gms/step, break-even %d steps, net %.3gms)",
		a.Decision, a.StepCur*1e3, a.StepNew*1e3, a.Gain*1e3, a.BreakEven, a.Net*1e3)
}

// StepTime models the per-step seconds of breakdown s (measured at np)
// when run on npNew processors.
func StepTime(s PerStep, np, npNew int) float64 {
	f := float64(np) / float64(npNew)
	return s.Compute*f + s.Comm + s.Idle/f
}

// Recommend evaluates the crossover for p.  Degenerate inputs (a
// non-positive processor count, NPNew == NP, or no steps left) hold.
func Recommend(p Params) Advice {
	a := Advice{Decision: Hold, BreakEven: -1}
	if p.NP <= 0 || p.NPNew <= 0 || p.NPNew == p.NP {
		a.StepCur = p.Step.Total()
		a.StepNew = a.StepCur
		return a
	}
	a.StepCur = StepTime(p.Step, p.NP, p.NP)
	a.StepNew = StepTime(p.Step, p.NP, p.NPNew)
	a.Gain = a.StepCur - a.StepNew
	a.Net = float64(p.StepsLeft)*a.Gain - p.Redist
	if a.Gain > 0 {
		if p.Redist <= 0 {
			a.BreakEven = 0
		} else {
			a.BreakEven = int(math.Ceil(p.Redist / a.Gain))
		}
	}
	if p.StepsLeft > 0 && a.Gain > 0 && a.Net > 0 {
		if p.NPNew > p.NP {
			a.Decision = Grow
		} else {
			a.Decision = Shrink
		}
	}
	return a
}

// RedistCost estimates the one-time cost of one resize from the
// DISTRIBUTE spans a trace recorded: the per-instance cost of every
// distributed array's DISTRIBUTE, summed (a resize re-distributes each
// live array once).  Arrays never redistributed contribute nothing;
// with no DISTRIBUTE spans at all the estimate is 0 (a resize is then
// modeled free, which errs toward resizing).
func RedistCost(s *trace.Summary) float64 {
	if s == nil {
		return 0
	}
	var cost float64
	for _, p := range s.Phases {
		if p.Cat != trace.CatDistribute || p.Count == 0 {
			continue
		}
		c := p.VTime
		if c == 0 {
			c = p.Wall.Seconds()
		}
		cost += c / float64(p.Count)
	}
	return cost
}
