// Package health is the straggler defense's measurement and decision.  It
// scores the throughput of every rank of a running SPMD machine and
// classifies each as Healthy or Degraded — a state machine deliberately
// distinct from the machine's binary dead set.  The
// membership layer answers "is the rank gone?"; this layer answers "is
// the rank *slow*?", which is what a drain-or-rebalance policy needs: a
// persistently overloaded rank inflates every barrier long before it
// misses a deadline.
//
// The scorer consumes per-rank work reports — cumulative (work units,
// busy seconds) counters, which the step loop gathers from every member
// at each iteration boundary — and maintains an EWMA of each rank's
// seconds-per-unit cost.  A
// rank's *slowdown* is its EWMA cost relative to the median across
// ranks, so the classification is self-calibrating: it needs no
// absolute speed model, only that most ranks are healthy.  Transitions
// are guarded by hysteresis: a rank changes class only after Hysteresis
// consecutive observations land in the same new class, and an
// observation counts as slow only when both its own cost and the EWMA
// are, so one slow step (a GC pause, a page fault, a deschedule) never
// flips anyone.
//
// Decide turns the scorer's verdict into the policy's Decision, and
// FairShares / WeightedBounds turn its measured speeds into the B_BLOCK
// bounds a rebalance divides work by (the paper's §2.2 bounds, driven by
// speed instead of particle counts).  Everything here is pure or
// mutex-guarded state; the step loop feeds it and acts on Decide.
package health

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Class is a rank's health classification.
type Class int

// Classes, ordered by severity.
const (
	// Healthy: the rank's per-unit cost tracks the median.
	Healthy Class = iota
	// Degraded: persistently slower than DegradedRatio × median — a
	// straggler worth rebalancing around or draining, but still making
	// progress.
	Degraded
)

func (c Class) String() string {
	if c == Degraded {
		return "degraded"
	}
	return "healthy"
}

// Config parameterizes the scorer.  The zero value is usable: every
// field has a default.
type Config struct {
	// Window is the EWMA window in observations (α = 2/(Window+1)).
	// Default 8.
	Window int
	// DegradedRatio is the slowdown (EWMA cost / median cost) at or
	// above which a rank is a Degraded candidate.  Default 2.
	DegradedRatio float64
	// Hysteresis is the number of consecutive observations that must
	// agree on a new class before the rank transitions to it.  Default
	// 3; a value below 2 is raised to 2 so a single observation can
	// never flip a classification.
	Hysteresis int
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.DegradedRatio <= 1 {
		c.DegradedRatio = 2
	}
	if c.Hysteresis < 2 {
		if c.Hysteresis == 0 {
			c.Hysteresis = 3
		} else {
			c.Hysteresis = 2
		}
	}
	return c
}

// rankState is one rank's scoring state.
type rankState struct {
	seq      int64   // newest report sequence folded in (dedup)
	units    float64 // cumulative work units at seq
	secs     float64 // cumulative busy seconds at seq
	n        int     // observations folded into the EWMA
	cost     float64 // EWMA seconds per work unit
	class    Class
	streak   int  // consecutive observations arguing for the other class
	everDegr bool // rank was classified Degraded at least once
}

// Scorer maintains per-rank EWMA throughput scores with hysteresis.
// All methods are safe for concurrent use; Observe deduplicates by
// report sequence, so a report delivered twice counts once.
type Scorer struct {
	mu    sync.Mutex
	cfg   Config
	ranks []rankState
}

// New creates a scorer for np physical ranks.
func New(np int, cfg Config) *Scorer {
	return &Scorer{cfg: cfg.withDefaults(), ranks: make([]rankState, np)}
}

// Observe folds one work report from rank into the score: seq is the
// report sequence (monotone per rank; stale or duplicate sequences are
// ignored), units and secs are *cumulative* work units completed and
// busy seconds spent since the run began.  Deltas between consecutive
// reports form the per-unit cost observation, so the sampling rate —
// how often the counters are gathered — does not skew the score.
func (s *Scorer) Observe(rank int, seq int64, units, secs float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rank < 0 || rank >= len(s.ranks) {
		return
	}
	st := &s.ranks[rank]
	if seq <= st.seq {
		return
	}
	du, ds := units-st.units, secs-st.secs
	st.seq, st.units, st.secs = seq, units, secs
	if du <= 0 || ds < 0 {
		return // no work completed since the last report: nothing to score
	}
	cost := ds / du
	if st.n == 0 {
		st.cost = cost
	} else {
		alpha := 2 / float64(s.cfg.Window+1)
		st.cost = alpha*cost + (1-alpha)*st.cost
	}
	st.n++
	s.reclassify(rank, cost)
}

// reclassify places rank's newest observation against the current
// median cost and advances its hysteresis streak.  An observation
// argues for the class of the milder of its own cost and the EWMA: the
// EWMA alone carries one extreme sample (a descheduled compute section)
// over several later observations and would let a single pause fill a
// whole streak, while the raw cost alone counts every moderately noisy
// sample.  Caller holds mu.
func (s *Scorer) reclassify(rank int, cost float64) {
	med := s.medianLocked()
	st := &s.ranks[rank]
	if med <= 0 {
		return
	}
	ratio := min(cost, st.cost) / med
	target := Healthy
	if ratio >= s.cfg.DegradedRatio {
		target = Degraded
	}
	if target == st.class {
		st.streak = 0
		return
	}
	st.streak++
	if st.streak >= s.cfg.Hysteresis {
		st.class, st.streak = target, 0
		if target == Degraded {
			st.everDegr = true
		}
	}
}

// medianLocked returns the median EWMA cost across ranks with at least
// one observation (0 when none).  Caller holds mu.
func (s *Scorer) medianLocked() float64 {
	costs := make([]float64, 0, len(s.ranks))
	for i := range s.ranks {
		if s.ranks[i].n > 0 {
			costs = append(costs, s.ranks[i].cost)
		}
	}
	if len(costs) == 0 {
		return 0
	}
	sort.Float64s(costs)
	mid := len(costs) / 2
	if len(costs)%2 == 1 {
		return costs[mid]
	}
	return (costs[mid-1] + costs[mid]) / 2
}

func (s *Scorer) slowdownLocked(rank int) float64 {
	if rank < 0 || rank >= len(s.ranks) || s.ranks[rank].n == 0 {
		return 1
	}
	med := s.medianLocked()
	if med <= 0 {
		return 1
	}
	return s.ranks[rank].cost / med
}

// Speeds returns the relative throughput of each given physical rank
// (median rank = 1, an 8× straggler ≈ 0.125; 1 for ranks with no
// observations).  These are the weights a throughput-aware B_BLOCK
// rebalance feeds to its bounds computation.
func (s *Scorer) Speeds(ranks []int) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(ranks))
	for i, r := range ranks {
		sd := s.slowdownLocked(r)
		if sd <= 0 {
			sd = 1
		}
		out[i] = 1 / sd
	}
	return out
}

// RankReport is one rank's line of a health report.
type RankReport struct {
	Rank         int
	Class        Class
	Slowdown     float64
	Observations int
	// EverDegraded reports whether the rank was ever classified Degraded
	// during the run — the "was the straggler detected"
	// answer, robust to the rank recovering (or being relieved by a
	// rebalance) afterwards.
	EverDegraded bool
}

func (r RankReport) String() string {
	return fmt.Sprintf("rank %d: %s (slowdown %.2fx over %d obs)", r.Rank, r.Class, r.Slowdown, r.Observations)
}

// Report returns the health lines of the given physical ranks.
func (s *Scorer) Report(ranks []int) []RankReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RankReport, len(ranks))
	for i, r := range ranks {
		rr := RankReport{Rank: r, Slowdown: 1}
		if r >= 0 && r < len(s.ranks) {
			rr.Class = s.ranks[r].class
			rr.Slowdown = s.slowdownLocked(r)
			rr.Observations = s.ranks[r].n
			rr.EverDegraded = s.ranks[r].everDegr
		}
		out[i] = rr
	}
	return out
}

// Worst returns the given rank set's slowest Degraded member — the
// straggler a mitigation policy would act on.  ok is false when every
// given rank is Healthy.
func (s *Scorer) Worst(ranks []int) (rank int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rank, worst := -1, 0.0
	for _, r := range ranks {
		if r < 0 || r >= len(s.ranks) || s.ranks[r].class == Healthy {
			continue
		}
		if sd := s.slowdownLocked(r); !ok || sd > worst {
			rank, worst, ok = r, sd, true
		}
	}
	return rank, ok
}

// Decision is what the straggler policy does at an iteration boundary.
type Decision int

// Decisions.
const (
	// Hold keeps every rank and the current bounds.
	Hold Decision = iota
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
	case Rebalance:
		return "rebalance"
	case Drain:
		return "drain"
	}
	return "hold"
}

// Decide is the straggler policy's decision over the view whose members
// are the given physical ranks (members[v] is view rank v's): for policy
// "rebalance" or "drain" and a Degraded member among at least two, that
// decision, the straggler's view rank and the members' measured speeds;
// Hold, -1 and nil otherwise — "" and "off" observe only.
func Decide(policy string, s *Scorer, members []int) (Decision, int, []float64) {
	dec := Hold
	switch policy {
	case "rebalance":
		dec = Rebalance
	case "drain":
		dec = Drain
	}
	if dec == Hold || len(members) < 2 {
		return Hold, -1, nil
	}
	worst, ok := s.Worst(members)
	if !ok {
		return Hold, -1, nil
	}
	return dec, slices.Index(members, worst), s.Speeds(members)
}

// FairShares normalizes per-rank speeds (from Scorer.Speeds) into work
// shares summing to 1.  Non-positive speeds are clamped to a small
// fraction of the fastest so a stalled rank still gets a sliver rather
// than a divide-by-zero; all-non-positive input degrades to an even
// split.
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
