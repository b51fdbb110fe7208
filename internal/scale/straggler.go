// Straggler mitigation policy: given a measured per-rank slowdown (from
// the health scorer) and the same per-step cost breakdown the
// grow/shrink policy uses, decide whether to do nothing, rebalance the
// block bounds around the slow rank, or drain it from the membership.
//
// The model extends StepTime with a straggler term.  Let f be the slow
// rank's slowdown and np the processor count, with Step the *nominal*
// (healthy-rank) breakdown:
//
//   - Do nothing: the straggler stretches every step's critical path to
//     its own compute time — Compute×f + Comm + Idle.
//   - Rebalance: work is re-divided in proportion to measured speeds, so
//     all ranks finish together; the effective processor count is
//     (np−1) + 1/f and the compute term Compute×np/(np−1+1/f).  Comm
//     and Idle stay: the slow rank still sits on every collective.
//   - Drain: np−1 full-speed ranks run the step — exactly
//     StepTime(Step, np, np−1); the break-even of the issue's "P−1
//     healthy beat P with one slow".
//
// Rebalance and drain each pay the one-time redistribution cost Redist;
// the recommendation is the largest positive projected net over the
// remaining steps.
package scale

import "fmt"

// StragglerParams is one mitigation question: NP processors with
// StepsLeft steps remaining, one rank measured Slowdown× slower than
// the median, nominal per-step breakdown Step (at NP, healthy ranks),
// and one-time redistribution cost Redist for either mitigation.
type StragglerParams struct {
	NP        int
	StepsLeft int
	Step      PerStep
	Slowdown  float64
	Redist    float64
}

// StragglerAdvice reports the mitigation recommendation with the
// modeled per-step times and projected nets behind it.
type StragglerAdvice struct {
	// Decision is Hold, Rebalance, or Drain.
	Decision Decision
	// Modeled per-step seconds under each course of action.
	StepNone, StepRebalance, StepDrain float64
	// Projected remaining-time savings (vs doing nothing) of each
	// mitigation, net of Redist.  Positive iff the mitigation pays.
	NetRebalance, NetDrain float64
}

func (a StragglerAdvice) String() string {
	return fmt.Sprintf("%s (step none %.3gms, rebalance %.3gms, drain %.3gms; net rebalance %.3gms, drain %.3gms)",
		a.Decision, a.StepNone*1e3, a.StepRebalance*1e3, a.StepDrain*1e3, a.NetRebalance*1e3, a.NetDrain*1e3)
}

// StragglerStepTime models the per-step seconds of nominal breakdown s
// on np processors of which one runs slowdown× slower, with work
// divided evenly (the do-nothing baseline).
func StragglerStepTime(s PerStep, slowdown float64) float64 {
	if slowdown < 1 {
		slowdown = 1
	}
	return s.Compute*slowdown + s.Comm + s.Idle
}

// RebalancedStepTime models the per-step seconds when work is divided
// in proportion to speed instead: all ranks finish together behind an
// effective processor count of (np−1) + 1/slowdown.
func RebalancedStepTime(s PerStep, np int, slowdown float64) float64 {
	if slowdown < 1 {
		slowdown = 1
	}
	eff := float64(np-1) + 1/slowdown
	return s.Compute*float64(np)/eff + s.Comm + s.Idle
}

// RecommendStraggler evaluates the three courses of action.  Degenerate
// inputs (fewer than 2 processors, no measured slowdown, no steps left)
// hold.
func RecommendStraggler(p StragglerParams) StragglerAdvice {
	a := StragglerAdvice{Decision: Hold}
	a.StepNone = StragglerStepTime(p.Step, p.Slowdown)
	a.StepRebalance = a.StepNone
	a.StepDrain = a.StepNone
	if p.NP < 2 || p.Slowdown <= 1 || p.StepsLeft <= 0 {
		return a
	}
	a.StepRebalance = RebalancedStepTime(p.Step, p.NP, p.Slowdown)
	a.StepDrain = StepTime(p.Step, p.NP, p.NP-1)
	steps := float64(p.StepsLeft)
	a.NetRebalance = steps*(a.StepNone-a.StepRebalance) - p.Redist
	a.NetDrain = steps*(a.StepNone-a.StepDrain) - p.Redist
	switch {
	case a.NetDrain > 0 && a.NetDrain >= a.NetRebalance:
		a.Decision = Drain
	case a.NetRebalance > 0:
		a.Decision = Rebalance
	}
	return a
}

// FairShares normalizes per-rank speeds (from health.Scorer.Speeds)
// into work shares summing to 1.  Non-positive speeds are clamped to a
// small fraction of the fastest so a stalled rank still gets a sliver
// rather than a divide-by-zero; all-non-positive input degrades to an
// even split.
func FairShares(speeds []float64) []float64 {
	n := len(speeds)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	max := 0.0
	for _, v := range speeds {
		if v > max {
			max = v
		}
	}
	if max <= 0 {
		for i := range out {
			out[i] = 1 / float64(n)
		}
		return out
	}
	floor := max * 1e-3
	sum := 0.0
	for i, v := range speeds {
		if v < floor {
			v = floor
		}
		out[i] = v
		sum += v
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// WeightedBounds divides n items (rows, columns) over len(speeds)
// processors in proportion to their measured speeds: the generalized
// B_BLOCK bounds of the paper's §2.3, with the straggler's block shrunk
// by its slowdown.  Bounds are 1-based inclusive upper bounds per
// processor, non-decreasing, ending at n — the exact shape
// dist.BBlockDim wants.  Equal speeds reproduce the even block split.
func WeightedBounds(n int, speeds []float64) []int {
	shares := FairShares(speeds)
	np := len(shares)
	bounds := make([]int, np)
	cum := 0.0
	for p := 0; p < np; p++ {
		cum += shares[p]
		b := int(cum*float64(n) + 0.5)
		if p > 0 && b < bounds[p-1] {
			b = bounds[p-1]
		}
		if b > n {
			b = n
		}
		bounds[p] = b
	}
	if np > 0 {
		bounds[np-1] = n
	}
	return bounds
}

// CountBounds returns B_BLOCK bounds assigning contiguous cells to np
// processors so that each gets roughly total/np of the counts (particles
// per cell) — the balance() of the paper's Figure 2.  Bounds are 1-based
// inclusive upper bounds, non-decreasing, ending at len(counts).
func CountBounds(counts []float64, np int) []int {
	total := 0.0
	for _, c := range counts {
		total += c
	}
	per := total / float64(np)
	bounds := make([]int, np)
	acc := 0.0
	p := 0
	for i, c := range counts {
		acc += c
		if acc >= per*float64(p+1) && p < np-1 {
			bounds[p] = i + 1 // 1-based cell index
			p++
		}
	}
	return closeBounds(bounds, p, len(counts))
}

// WeightedCountBounds generalizes CountBounds to uneven targets: the
// cumulative count targets follow the given work shares (summing to 1,
// from FairShares) instead of an even total/np split, so a slow
// processor's segment carries proportionally fewer particles.
func WeightedCountBounds(counts, shares []float64) []int {
	np := len(shares)
	total := 0.0
	for _, c := range counts {
		total += c
	}
	targets := make([]float64, np)
	cum := 0.0
	for p := range shares {
		cum += shares[p]
		targets[p] = total * cum
	}
	bounds := make([]int, np)
	acc := 0.0
	p := 0
	for i, c := range counts {
		acc += c
		for p < np-1 && acc >= targets[p] {
			bounds[p] = i + 1 // 1-based cell index
			p++
		}
	}
	return closeBounds(bounds, p, len(counts))
}

// closeBounds gives the processors from p on the bound n, fills any gap
// so the bounds never decrease, and ends them at n.
func closeBounds(bounds []int, p, n int) []int {
	for ; p < len(bounds); p++ {
		bounds[p] = n
	}
	prev := 0
	for i := range bounds {
		if bounds[i] < prev {
			bounds[i] = prev
		}
		prev = bounds[i]
	}
	bounds[len(bounds)-1] = n
	return bounds
}
