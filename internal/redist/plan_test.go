package redist_test

// Planner property tests.  Most run without a machine: distributions are
// built over ckpt's virtual replay target (a dense column-major processor
// array with no transport behind it), every selected plan is executed as
// a schedule-level simulation, and the delivered element set is checked
// for exact equality with the new distribution's ownership.
// TestPlanPeakBoundsExecutor then runs the same crossings on a live
// machine and holds the executor's measured wire residency to the plan's
// modelled peak.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/redist"
)

type crossing struct {
	name string
	dom  index.Domain
	oldD *dist.Distribution
	newD *dist.Distribution
	np   int
}

// planCrossings covers the distribution-kind matrix of the acceptance
// criteria: block/cyclic/B_BLOCK/2-D crossings, uneven extents, and a
// 1-D -> 2-D processor-arrangement change, over a line of four processors
// and a 2x2 grid of them.
func planCrossings(t *testing.T, line, grid dist.Target) []crossing {
	t.Helper()
	mk := func(typ dist.Type, dom index.Domain, tg dist.Target) *dist.Distribution {
		d, err := dist.New(typ, dom, tg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d64 := index.Dim(64)
	d23 := index.Dim(23) // uneven: 23 = 4*5+3
	d2d := index.Dim(12, 10)
	dun := index.Dim(13, 7) // uneven 2-D
	return []crossing{
		{"block->cyclic", d64,
			mk(dist.NewType(dist.BlockDim()), d64, line),
			mk(dist.NewType(dist.CyclicDim(1)), d64, line), 4},
		{"block->cyclic uneven", d23,
			mk(dist.NewType(dist.BlockDim()), d23, line),
			mk(dist.NewType(dist.CyclicDim(1)), d23, line), 4},
		{"cyclic(3)->block uneven", d23,
			mk(dist.NewType(dist.CyclicDim(3)), d23, line),
			mk(dist.NewType(dist.BlockDim()), d23, line), 4},
		{"bblock->cyclic(2)", d23,
			mk(dist.NewType(dist.BBlockDim(2, 9, 15, 23)), d23, line),
			mk(dist.NewType(dist.CyclicDim(2)), d23, line), 4},
		{"cols->rows 2-D", d2d,
			mk(dist.NewType(dist.ElidedDim(), dist.BlockDim()), d2d, line),
			mk(dist.NewType(dist.BlockDim(), dist.ElidedDim()), d2d, line), 4},
		{"1-D block -> 2-D block", d2d,
			mk(dist.NewType(dist.BlockDim(), dist.ElidedDim()), d2d, line),
			mk(dist.NewType(dist.BlockDim(), dist.BlockDim()), d2d, grid), 4},
		{"2-D block -> cyclic uneven", dun,
			mk(dist.NewType(dist.BlockDim(), dist.BlockDim()), dun, grid),
			mk(dist.NewType(dist.CyclicDim(1), dist.ElidedDim()), dun, line), 4},
	}
}

// virtualCrossings is planCrossings over the processor arrays of a
// machine that never runs: the planner reads only their geometry.
func virtualCrossings(t *testing.T) []crossing {
	m := machine.New(4)
	t.Cleanup(func() { m.Close() })
	return planCrossings(t, m.ProcsDim("P", 4).Whole(), m.ProcsDim("G", 2, 2).Whole())
}

// remoteSends is the number of messages s sends: its transfers to other
// ranks.
func remoteSends(s *redist.Schedule) int {
	n := 0
	for _, tr := range s.Sends {
		if tr.Peer != s.Rank {
			n++
		}
	}
	return n
}

// planBudgets are the memory budgets every planner test selects under:
// unbounded, one that every direct plan fits, and ever tighter ones that
// force chunking and, at 16 bytes, ErrNoPlan for three crossings.
var planBudgets = []int64{0, 1 << 20, 4096, 512, 128, 64, 16}

// planInfeasible names the crossings no plan fits at 16 bytes — the
// only budget of planBudgets that any crossing fails.
var planInfeasible = map[string]bool{
	"cols->rows 2-D": true, "1-D block -> 2-D block": true, "2-D block -> cyclic uneven": true,
}

func planVal(p index.Point) float64 {
	v := float64(p[0])
	if len(p) > 1 {
		v += 1000 * float64(p[1])
	}
	return v
}

// simulatePlan replays every step of the plan at the schedule level:
// deliveries follow each step's (panel-restricted) receive transfers, so
// panel overlap shows up as a duplicate delivery and a panel gap as a
// missing element — exactness, not just coverage.
func simulatePlan(t *testing.T, c crossing, plan *redist.Plan) {
	t.Helper()
	scheds := make([]*redist.Schedule, c.np)
	for r := 0; r < c.np; r++ {
		scheds[r] = redist.Build(c.oldD, c.newD, r, c.np)
	}
	got := make([]map[string]float64, c.np)
	for r := range got {
		got[r] = map[string]float64{}
	}
	deliver := func(rank int, p index.Point) {
		key := p.String()
		if _, dup := got[rank][key]; dup {
			t.Fatalf("%s/%s: %v delivered to rank %d twice", c.name, plan.Kind, p, rank)
		}
		got[rank][key] = planVal(p)
	}
	// The self-transfer is local and whole-domain in every plan.
	for r := 0; r < c.np; r++ {
		for _, snd := range scheds[r].Sends {
			if snd.Peer == r {
				r := r
				snd.Grid.ForEach(func(p index.Point) bool { deliver(r, p); return true })
			}
		}
	}
	for k := range plan.Steps {
		for r := 0; r < c.np; r++ {
			sub := plan.StepSchedule(scheds[r], k)
			for _, rcv := range sub.Recvs {
				if rcv.Peer == r {
					continue
				}
				peer, rank := rcv.Peer, r
				rcv.Grid.ForEach(func(p index.Point) bool {
					if !c.oldD.IsLocal(peer, p) {
						t.Fatalf("%s/%s step %d: rank %d receives %v from %d, who never owned it",
							c.name, plan.Kind, k, rank, p, peer)
					}
					deliver(rank, p)
					return true
				})
			}
		}
	}
	for r := 0; r < c.np; r++ {
		g := c.newD.LocalGrid(r)
		n := 0
		r := r
		g.ForEach(func(p index.Point) bool {
			v, ok := got[r][p.String()]
			if !ok {
				t.Fatalf("%s/%s: rank %d missing %v", c.name, plan.Kind, r, p)
			}
			if v != planVal(p) {
				t.Fatalf("%s/%s: rank %d wrong value at %v", c.name, plan.Kind, r, p)
			}
			n++
			return true
		})
		if n != len(got[r]) {
			t.Fatalf("%s/%s: rank %d got %d deliveries for %d owned points", c.name, plan.Kind, r, len(got[r]), n)
		}
	}
}

// TestPlanCandidatesBitIdentical simulates every plan PlanMove selects
// for every crossing at every budget, and at one byte under the direct
// plan's peak — the loosest budget that forces panels: whatever the
// planner picks, the moved element set must equal the unbudgeted move's
// exactly.
func TestPlanCandidatesBitIdentical(t *testing.T) {
	for _, c := range virtualCrossings(t) {
		direct, err := redist.PlanMove(c.oldD, c.newD, c.np, redist.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, budget := range append(planBudgets, direct.PeakBytes-1) {
			plan, err := redist.PlanMove(c.oldD, c.newD, c.np, redist.PlanOptions{MemBudget: budget})
			if err != nil || seen[plan.Kind] {
				continue
			}
			seen[plan.Kind] = true
			t.Run(fmt.Sprintf("%s/%s", c.name, plan.Kind), func(t *testing.T) {
				simulatePlan(t, c, plan)
			})
		}
	}
}

// TestPlanEstimatesConsistent checks the cost bookkeeping of every
// selected plan: it moves exactly the schedules' bytes, the direct plan in
// exactly their messages and a chunked one in no fewer; plan totals are
// the sums of their steps; and the peak is the ring-round cost recomputed
// from the receive side — max over ranks r and rounds j of r's send to
// r+j plus its receive from r-j — which a budgeted plan keeps within its
// budget.
func TestPlanEstimatesConsistent(t *testing.T) {
	for _, c := range virtualCrossings(t) {
		scheds := make([]*redist.Schedule, c.np)
		var wantMsgs, wantBytes int64
		for r := range scheds {
			scheds[r] = redist.Build(c.oldD, c.newD, r, c.np)
			wantMsgs += int64(remoteSends(scheds[r]))
			wantBytes += int64(scheds[r].SendBytes())
		}
		for _, budget := range planBudgets {
			p, err := redist.PlanMove(c.oldD, c.newD, c.np, redist.PlanOptions{MemBudget: budget})
			if err != nil {
				continue
			}
			var stepPeak, stepMsgs, stepBytes int64
			for k, st := range p.Steps {
				stepPeak = max(stepPeak, st.PeakBytes)
				stepMsgs += st.Msgs
				stepBytes += st.Bytes
				var ring int64
				for r := 0; r < c.np; r++ {
					sub := p.StepSchedule(scheds[r], k)
					for j := 1; j < c.np; j++ {
						ring = max(ring, peerBytes(sub.Sends, (r+j)%c.np)+peerBytes(sub.Recvs, (r-j+c.np)%c.np))
					}
				}
				if ring != st.PeakBytes {
					t.Errorf("%s/%s step %d: peak %d, ring rounds hold %d", c.name, p.Kind, k, st.PeakBytes, ring)
				}
			}
			if stepPeak != p.PeakBytes || stepMsgs != p.Msgs || stepBytes != p.Bytes {
				t.Errorf("%s/%s: plan totals (%d,%d,%d) != step sums (%d,%d,%d)",
					c.name, p.Kind, p.PeakBytes, p.Msgs, p.Bytes, stepPeak, stepMsgs, stepBytes)
			}
			if p.Bytes != wantBytes {
				t.Errorf("%s/%s: moves %d bytes, schedules say %d", c.name, p.Kind, p.Bytes, wantBytes)
			}
			if p.Kind == "direct" && p.Msgs != wantMsgs || p.Msgs < wantMsgs {
				t.Errorf("%s/%s: %d msgs, schedules say %d", c.name, p.Kind, p.Msgs, wantMsgs)
			}
			if budget > 0 && p.PeakBytes > budget {
				t.Errorf("%s/%s: peak %d exceeds budget %d", c.name, p.Kind, p.PeakBytes, budget)
			}
		}
	}
}

// peerBytes returns the payload bytes of the transfer with peer in ts.
func peerBytes(ts []redist.Transfer, peer int) int64 {
	for _, t := range ts {
		if t.Peer == peer {
			return int64(8 * t.Count)
		}
	}
	return 0
}

// TestPlanSelection pins the selection rule at every budget: direct when
// there is no budget or its peak fits; otherwise the coarsest chunking
// that fits, so a tighter budget never takes fewer steps or messages;
// otherwise a typed, enforced ErrNoPlan that names the finest chunking —
// for exactly the crossings the planner has always refused.
func TestPlanSelection(t *testing.T) {
	for _, c := range virtualCrossings(t) {
		direct, err := redist.PlanMove(c.oldD, c.newD, c.np, redist.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if direct.Kind != "direct" || len(direct.Steps) != 1 || direct.Steps[0].Panel != nil || direct.Budget != 0 {
			t.Fatalf("%s: no budget must select the whole-domain direct plan, got %v", c.name, direct)
		}
		prev := direct
		for _, budget := range planBudgets[1:] {
			p, err := redist.PlanMove(c.oldD, c.newD, c.np, redist.PlanOptions{MemBudget: budget})
			if err != nil {
				if !errors.Is(err, redist.ErrNoPlan) || !strings.Contains(err.Error(), "finest decomposition (chunked[") {
					t.Errorf("%s budget %d: got %v, want ErrNoPlan naming the finest chunking", c.name, budget, err)
				}
				if !planInfeasible[c.name] || budget != 16 {
					t.Errorf("%s budget %d: no plan, but one has always fit", c.name, budget)
				}
				continue
			}
			if planInfeasible[c.name] && budget == 16 {
				t.Errorf("%s budget %d: plan %v where none has ever fit", c.name, budget, p)
			}
			if p.Budget != budget || p.PeakBytes > budget || p.Bytes != direct.Bytes {
				t.Errorf("%s budget %d: plan %v (budget %d) breaks the budget or the bytes", c.name, budget, p, p.Budget)
			}
			switch {
			case direct.PeakBytes <= budget:
				if p.Kind != "direct" || p.PeakBytes != direct.PeakBytes || p.Msgs != direct.Msgs {
					t.Errorf("%s budget %d: direct (peak %d) fits, got %v", c.name, budget, direct.PeakBytes, p)
				}
			case !strings.HasPrefix(p.Kind, "chunked[") || len(p.Steps) < 2:
				t.Errorf("%s budget %d: direct peaks at %d, got %v", c.name, budget, direct.PeakBytes, p)
			}
			if len(p.Steps) < len(prev.Steps) || p.Msgs < prev.Msgs {
				t.Errorf("%s budget %d: %v takes fewer steps or messages than %v under a looser budget", c.name, budget, p, prev)
			}
			prev = p
		}
	}

	// A 256-element BLOCK -> CYCLIC: an eighth of the direct peak needs
	// panels; one byte fits nothing, and the error names the finest
	// chunking, one panel per index.
	m := machine.New(4)
	defer m.Close()
	tg := m.ProcsDim("P", 4).Whole()
	dom := index.Dim(256)
	oldD := dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg)
	newD := dist.MustNew(dist.NewType(dist.CyclicDim(1)), dom, tg)
	direct, err := redist.PlanMove(oldD, newD, 4, redist.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	small := direct.PeakBytes / 8
	ch, err := redist.PlanMove(oldD, newD, 4, redist.PlanOptions{MemBudget: small})
	if err != nil {
		t.Fatal(err)
	}
	if ch.PeakBytes > small || ch.Bytes != direct.Bytes || len(ch.Steps) < 2 {
		t.Fatalf("budget %d of peak %d: got %v", small, direct.PeakBytes, ch)
	}
	_, err = redist.PlanMove(oldD, newD, 4, redist.PlanOptions{MemBudget: 1})
	if !errors.Is(err, redist.ErrNoPlan) || !strings.Contains(err.Error(), "(chunked[256]) still peaks at 8 bytes") {
		t.Fatalf("budget 1 byte: got %v, want ErrNoPlan naming chunked[256]", err)
	}
}

// TestPlanPeakBoundsExecutor runs every crossing at every budget on a
// live 4-rank machine, over TCP — where every remote transfer crosses a
// wire and is metered — and over channels.  The wire residency the
// executor is measured to hold (Stats.PeakWireBytes) must never exceed
// the selected plan's modelled PeakBytes, budgeted or not: the model is an
// upper bound of what the executor holds.  A budget no plan fits must
// fail on every rank, and every other move must deliver exactly the
// values the unbudgeted one does.
func TestPlanPeakBoundsExecutor(t *testing.T) {
	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			var tr msg.Transport = msg.NewChanTransport(4)
			if transport == "tcp" {
				tcp, err := msg.NewTCPTransport(4)
				if err != nil {
					t.Fatal(err)
				}
				tr = tcp
			}
			m := machine.New(4, machine.WithTransport(tr))
			defer m.Close()
			cs := planCrossings(t, m.ProcsDim("P", 4).Whole(), m.ProcsDim("G", 2, 2).Whole())
			st := m.Stats()
			err := m.Run(func(ctx *machine.Ctx) error {
				for _, c := range cs {
					for _, budget := range planBudgets {
						plan, perr := redist.PlanMove(c.oldD, c.newD, c.np, redist.PlanOptions{MemBudget: budget})
						a := darray.New(ctx, "X", c.dom, c.oldD)
						a.FillFunc(ctx, planVal)
						if err := ctx.Barrier(); err != nil {
							return err
						}
						if ctx.Rank() == 0 {
							st.ResetWirePeak()
						}
						if err := ctx.Barrier(); err != nil {
							return err
						}
						err := a.RedistributeTo(ctx, c.newD, darray.MemBudget(budget))
						if perr != nil {
							if !errors.Is(err, redist.ErrNoPlan) {
								t.Errorf("%s budget %d rank %d: got %v, want ErrNoPlan", c.name, budget, ctx.Rank(), err)
							}
							continue
						}
						if err != nil {
							return err
						}
						a.Local(ctx).ForEachOwned(func(p index.Point, v *float64) {
							if *v != planVal(p) {
								t.Errorf("%s budget %d rank %d: %v = %v, want %v", c.name, budget, ctx.Rank(), p, *v, planVal(p))
							}
						})
						if err := ctx.Barrier(); err != nil {
							return err
						}
						if ctx.Rank() != 0 {
							continue
						}
						peak := st.PeakWireBytes()
						if peak > plan.PeakBytes {
							t.Errorf("%s budget %d (%v): measured peak %d exceeds the modelled %d", c.name, budget, plan, peak, plan.PeakBytes)
						}
						if transport == "tcp" && plan.Msgs > 0 && peak == 0 {
							t.Errorf("%s budget %d: no wire residency measured over TCP; the bound would be vacuous", c.name, budget)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPlanDeterministic: the plan is a pure function of its arguments —
// the SPMD contract that lets every rank plan independently.
func TestPlanDeterministic(t *testing.T) {
	for _, c := range virtualCrossings(t) {
		for _, budget := range []int64{0, 4096, 128} {
			a, errA := redist.PlanMove(c.oldD, c.newD, c.np, redist.PlanOptions{MemBudget: budget})
			b, errB := redist.PlanMove(c.oldD, c.newD, c.np, redist.PlanOptions{MemBudget: budget})
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s budget %d: nondeterministic error %v vs %v", c.name, budget, errA, errB)
			}
			if errA != nil {
				continue
			}
			if a.Kind != b.Kind || len(a.Steps) != len(b.Steps) || a.PeakBytes != b.PeakBytes ||
				a.Msgs != b.Msgs || a.Bytes != b.Bytes {
				t.Fatalf("%s budget %d: plans differ: %v vs %v", c.name, budget, a, b)
			}
		}
	}
}
