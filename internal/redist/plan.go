package redist

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/dist"
	"repro/internal/index"
)

// This file turns redist from a one-shot schedule builder into a
// *planner*: a (dist_A -> dist_B) move is decomposed into a short sequence
// of bounded steps, each costed by its exact peak resident wire bytes, and
// the plan that fits the caller's memory budget is selected.  Every step
// is one pass of the one executor, darray's stepDirect: a staggered ring
// in which round j pairs rank r with to = r+j and from = r-j, so a rank
// holds at most its send to one peer and its receive from another at a
// time.  Building redistribution from a few portable collectives follows
// "Memory-efficient array redistribution through portable collective
// communication" (Rink et al.) — here one collective, run whole or per
// panel; the multi-step cost model follows Sudarsan & Ribbens.
//
//	plan    := direct | chunked(C)
//	direct  := one ring over the whole domain
//	chunked := C domain panels, one ring each
//
// Both move exactly the same element set (the symmetric Schedule); they
// differ only in how many wire bytes are resident at once and in how many
// messages they take.

// Step is one pass of the ring over the whole domain or one panel of it.
type Step struct {
	// Panel restricts the move to a slab of the plan's chunk dimension;
	// nil means the whole domain.
	Panel index.RunSet
	// PeakBytes is the most wire bytes any rank holds in one ring round:
	// its send to that round's peer plus its receive from the other (8
	// bytes/element).
	PeakBytes int64
	// Msgs and Bytes are the remote data messages and payload bytes the
	// step moves, summed over all ranks.
	Msgs  int64
	Bytes int64
}

// PlanOptions parameterizes plan selection.
type PlanOptions struct {
	// MemBudget bounds the peak resident wire bytes per rank.  Zero (or
	// negative) means unbounded, which selects the direct plan.
	MemBudget int64
}

// Plan is the selected decomposition of one redistribution, identical on
// every rank (it is computed from the distributions alone, SPMD-
// symmetrically — no coordination messages).
type Plan struct {
	// Kind names the decomposition ("direct", "chunked[8]").
	Kind string
	// Steps execute in order; each is individually bounded.
	Steps []Step
	// PeakBytes is max over steps of Step.PeakBytes — the planned peak
	// resident wire bytes on the worst rank.
	PeakBytes int64
	// Msgs and Bytes total the remote traffic over all steps and ranks.
	Msgs  int64
	Bytes int64
	// Budget echoes the MemBudget the plan was selected under.
	Budget int64

	// chunkDim is the domain dimension panels slice (chunked plans).
	chunkDim int
}

func (p *Plan) String() string {
	return fmt.Sprintf("%s steps=%d peak=%dB msgs=%d bytes=%d", p.Kind, len(p.Steps), p.PeakBytes, p.Msgs, p.Bytes)
}

// ErrNoPlan reports that no decomposition fits the memory budget (the
// budget is below even the finest chunking's peak).  The budget is
// enforced, not advisory: callers must fail the redistribution rather
// than exceed it.
var ErrNoPlan = errors.New("redist: no plan fits the memory budget")

// StepSchedule returns s restricted to step k's panel: every transfer
// grid intersected with the panel along the plan's chunk dimension,
// empty transfers dropped.  Whole-domain steps return s itself.
func (p *Plan) StepSchedule(s *Schedule, k int) *Schedule {
	panel := p.Steps[k].Panel
	if panel == nil {
		return s
	}
	out := &Schedule{Rank: s.Rank}
	clip := func(g index.Grid) index.Grid {
		ng := index.Grid{Dims: slices.Clone(g.Dims)}
		ng.Dims[p.chunkDim] = g.Dims[p.chunkDim].Intersect(panel)
		return ng
	}
	for _, t := range s.Sends {
		if g := clip(t.Grid); !g.Empty() {
			out.Sends = append(out.Sends, Transfer{Peer: t.Peer, Grid: g, Count: g.Count()})
		}
	}
	for _, t := range s.Recvs {
		if g := clip(t.Grid); !g.Empty() {
			out.Recvs = append(out.Recvs, Transfer{Peer: t.Peer, Grid: g, Count: g.Count()})
		}
	}
	if !s.LocalKeep.Empty() {
		if g := clip(s.LocalKeep); !g.Empty() {
			out.LocalKeep = g
		}
	}
	return out
}

// panelCount returns the element count of grid g restricted along
// dimension k to the runs of panel (cheap: only dimension k's count
// changes).
func panelCount(g index.Grid, k int, panel index.RunSet) int {
	dk := g.Dims[k].Count()
	if dk == 0 {
		return 0
	}
	return g.Count() / dk * g.Dims[k].Intersect(panel).Count()
}

// planner carries the shared inputs of plan construction.
type planner struct {
	dom      index.Domain
	np       int
	chunkDim int
	scheds   []*Schedule // per-rank symmetric schedules
}

// PlanMove selects the decomposition of (oldD -> newD) over np ranks
// under opt.  It is deterministic in its arguments, so every SPMD rank
// computes the same plan: direct when there is no budget or its peak
// fits, otherwise the coarsest chunking (doubling search) whose peak
// fits, otherwise ErrNoPlan naming the finest chunking's peak.
func PlanMove(oldD, newD *dist.Distribution, np int, opt PlanOptions) (*Plan, error) {
	pl := newPlanner(oldD, newD, np)
	best, budget := pl.plan(nil), opt.MemBudget
	if budget <= 0 {
		return best, nil
	}
	maxC := pl.dom.Extent(pl.chunkDim)
	for c := 2; best.PeakBytes > budget && c/2 < maxC; c *= 2 {
		best = pl.plan(pl.panels(min(c, maxC)))
	}
	if best.PeakBytes > budget {
		return nil, fmt.Errorf("%w: budget %d bytes, finest decomposition (%s) still peaks at %d bytes",
			ErrNoPlan, budget, best.Kind, best.PeakBytes)
	}
	best.Budget = budget
	return best, nil
}

// newPlanner builds the symmetric per-rank schedules and picks the chunk
// dimension: the one with the largest extent (ties to the outermost), so
// panels stay slab-shaped and the finest chunking has the most headroom.
func newPlanner(oldD, newD *dist.Distribution, np int) *planner {
	pl := &planner{dom: oldD.Domain(), np: np, scheds: make([]*Schedule, np)}
	for r := range pl.scheds {
		pl.scheds[r] = Build(oldD, newD, r, np)
	}
	for k := 1; k < pl.dom.Rank(); k++ {
		if pl.dom.Extent(k) >= pl.dom.Extent(pl.chunkDim) {
			pl.chunkDim = k
		}
	}
	return pl
}

// plan runs the ring once per panel, or once over the whole domain when
// panels is nil (the direct plan).
func (pl *planner) plan(panels []index.RunSet) *Plan {
	p := &Plan{Kind: "direct", chunkDim: pl.chunkDim}
	if panels == nil {
		p.Steps = []Step{pl.ring(nil)}
	} else {
		p.Kind = fmt.Sprintf("chunked[%d]", len(panels))
		p.Steps = make([]Step, len(panels))
		for i, pn := range panels {
			p.Steps[i] = pl.ring(pn)
		}
	}
	for _, st := range p.Steps {
		p.PeakBytes = max(p.PeakBytes, st.PeakBytes)
		p.Msgs += st.Msgs
		p.Bytes += st.Bytes
	}
	return p
}

// ring costs one pass of the executor's staggered ring over the panel
// (nil: the whole domain) — the one cost function: a round holds rank r's
// send to to = r+j beside its receive from from = r-j.
func (pl *planner) ring(panel index.RunSet) Step {
	np := pl.np
	sent := make([]int64, np*np) // sent[r*np+q]: bytes r sends to q
	for r, s := range pl.scheds {
		for _, t := range s.Sends {
			if t.Peer == r {
				continue
			}
			n := t.Count
			if panel != nil {
				n = panelCount(t.Grid, pl.chunkDim, panel)
			}
			sent[r*np+t.Peer] = int64(8 * n)
		}
	}
	st := Step{Panel: panel}
	for r := 0; r < np; r++ {
		for j := 1; j < np; j++ {
			snd, rcv := sent[r*np+(r+j)%np], sent[(r-j+np)%np*np+r]
			if snd > 0 {
				st.Msgs++
				st.Bytes += snd
			}
			st.PeakBytes = max(st.PeakBytes, snd+rcv)
		}
	}
	return st
}

// panels splits the chunk dimension's extent into c <= extent contiguous
// slabs.
func (pl *planner) panels(c int) []index.RunSet {
	lo, n := pl.dom.Lo[pl.chunkDim], pl.dom.Extent(pl.chunkDim)
	out := make([]index.RunSet, c)
	for i := range out {
		out[i] = index.RunSet{index.NewRun(lo+i*n/c, lo+(i+1)*n/c-1, 1)}
	}
	return out
}

// ParseBudget parses a human-friendly byte count: a plain integer, or an
// integer with a K/M/G suffix (binary multiples).  "0" and "" mean
// unbounded.
func ParseBudget(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("redist: bad budget %q: %w", s, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("redist: negative budget %q", s)
	}
	// The suffix multiply must not wrap: "99999999999999G" is out of
	// range, not a silently huge (or negative) budget.
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("redist: budget %q out of range: %w", s, strconv.ErrRange)
	}
	return n * mult, nil
}
