package darray

// End-to-end memory-budget tests: the planner's peak estimate is checked
// against the measured wire-buffer gauge on a live machine, and budgeted
// redistributions are compared bit-for-bit against unbounded ones.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/redist"
)

// gatherAfterRedist runs fill -> redistribute(opts) -> gather on a fresh
// 4-rank machine over the named transport and returns the gathered
// contents and the machine's peak resident wire bytes.
func gatherAfterRedist(t *testing.T, transport string, dom index.Domain, mk1, mk2 func(m *machine.Machine) *dist.Distribution, opts ...RedistOption) ([]float64, int64) {
	t.Helper()
	var out []float64
	m := runOn(t, transport, 4, nil, func(ctx *machine.Ctx) error {
		d1 := mk1(ctx.Machine())
		d2 := mk2(ctx.Machine())
		a := New(ctx, "B", dom, d1)
		a.FillFunc(ctx, val2)
		ctx.Barrier()
		if err := a.RedistributeTo(ctx, d2, opts...); err != nil {
			return err
		}
		got, err := a.GatherTo(ctx, 0)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			out = got
		}
		return nil
	})
	return out, m.Stats().PeakWireBytes()
}

// TestRedistributeMemBudgetBounded redistributes an array thirty-two
// times the budget: the measured peak must respect the bound and the
// result must be bit-identical to the unbounded redistribution.  The
// unbounded reference runs over TCP, the transport with a wire, where the
// direct step holds one framed transfer at a time (2 KiB here, so the
// budget sits below a single transfer and only a chunked plan fits it).
// The budgeted moves must show wire residency over TCP.  On shared memory
// every transfer — BLOCK -> CYCLIC(2)'s two runs per transfer included —
// is pulled rect by rect straight out of the senders' storage and has no
// wire residency at all, budgeted or not, which is asserted beside it.
func TestRedistributeMemBudgetBounded(t *testing.T) {
	dom := index.Dim(4096, 1) // 32 KiB of float64 data
	const budget = 1024       // array is 32x the budget
	mk1 := func(m *machine.Machine) *dist.Distribution {
		return dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), dom, m.ProcsDim("P", 4).Whole())
	}
	for _, k := range []int{1, 2} {
		mk2 := func(m *machine.Machine) *dist.Distribution {
			return dist.MustNew(dist.NewType(dist.CyclicDim(k), dist.ElidedDim()), dom, m.ProcsDim("P", 4).Whole())
		}
		free, freePeak := gatherAfterRedist(t, "tcp", dom, mk1, mk2)
		if freePeak <= budget {
			t.Fatalf("CYCLIC(%d): unbounded peak %d not above budget %d; test would be vacuous", k, freePeak, budget)
		}
		for _, transport := range []string{"chan", "tcp"} {
			bounded, boundedPeak := gatherAfterRedist(t, transport, dom, mk1, mk2, MemBudget(budget))
			if boundedPeak > budget {
				t.Fatalf("CYCLIC(%d) %s: measured peak wire bytes %d exceeds budget %d", k, transport, boundedPeak, budget)
			}
			if pulled := transport == "chan"; pulled != (boundedPeak == 0) {
				t.Fatalf("CYCLIC(%d) %s: budgeted peak wire bytes %d: a pull holds none, a wire some (or the bound check is vacuous)",
					k, transport, boundedPeak)
			}
			if !slices.Equal(free, bounded) {
				t.Fatalf("CYCLIC(%d) %s: budgeted result differs from the unbounded one", k, transport)
			}
		}
		pulled, pulledPeak := gatherAfterRedist(t, "chan", dom, mk1, mk2)
		if pulledPeak != 0 {
			t.Fatalf("CYCLIC(%d): unbudgeted shared-memory DISTRIBUTE held %d wire bytes, want 0 (every transfer is a pull)", k, pulledPeak)
		}
		if !slices.Equal(free, pulled) {
			t.Fatalf("CYCLIC(%d): pulled result differs from the framed one", k)
		}
	}
}

// TestRedistributeMemBudget1Dto2D crosses processor arrangements (1-D
// block -> 2-D block/block) under a budget an eighth of the array.
func TestRedistributeMemBudget1Dto2D(t *testing.T) {
	dom := index.Dim(64, 64) // 32 KiB
	const budget = 4096
	mk1 := func(m *machine.Machine) *dist.Distribution {
		return dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), dom, m.ProcsDim("P", 4).Whole())
	}
	mk2 := func(m *machine.Machine) *dist.Distribution {
		return dist.MustNew(dist.NewType(dist.BlockDim(), dist.BlockDim()), dom, m.ProcsDim("G", 2, 2).Whole())
	}

	free, _ := gatherAfterRedist(t, "chan", dom, mk1, mk2)
	bounded, boundedPeak := gatherAfterRedist(t, "chan", dom, mk1, mk2, MemBudget(budget))
	if boundedPeak > budget {
		t.Fatalf("measured peak wire bytes %d exceeds budget %d", boundedPeak, budget)
	}
	for i := range free {
		if free[i] != bounded[i] {
			t.Fatalf("budgeted result differs from unbounded at %d", i)
		}
	}
}

// TestRedistributeUnboundedExactCounts pins the no-budget path to the
// paper's cost model and the two transports to each other.  For a fixed
// BLOCK -> CYCLIC(3) crossing and for every crossing of the chain test's
// random chains: payload bytes and data-message counts of each DISTRIBUTE
// equal the schedule-derived sums exactly, and the run over channels —
// where rect transfers are pulled out of the sender's storage and the
// rest travel packed — ends bit-identical to the run over TCP, with the
// same data-message and byte totals.  A pull also returns a zero-byte done
// token, so the channel run's modelled makespan may exceed TCP's, by at
// most one send overhead per extra message.
func TestRedistributeUnboundedExactCounts(t *testing.T) {
	type chain struct {
		name string
		dom  index.Domain
		make func(m *machine.Machine) []*dist.Distribution
	}
	chains := []chain{{"blockToCyclic3", index.Dim(50, 3), func(m *machine.Machine) []*dist.Distribution {
		tg := m.ProcsDim("P", 4).Whole()
		dom := index.Dim(50, 3)
		return []*dist.Distribution{
			dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), dom, tg),
			dist.MustNew(dist.NewType(dist.CyclicDim(3), dist.ElidedDim()), dom, tg),
		}
	}}}
	for i, seed := range chainSeeds() {
		chains = append(chains, chain{fmt.Sprintf("chain%d", i), chainDom, func(m *machine.Machine) []*dist.Distribution {
			r := rand.New(rand.NewSource(seed))
			tg := m.ProcsDim("G", 2, 2).Whole()
			ds := []*dist.Distribution{dist.MustNew(dist.NewType(dist.BlockDim(), dist.BlockDim()), chainDom, tg)}
			for len(ds) < 6 {
				ds = append(ds, randomDist(tg, r))
			}
			return ds
		}})
	}
	type outcome struct {
		data             []float64
		msgs, all, bytes int64
		model            float64
	}
	for _, ch := range chains {
		t.Run(ch.name, func(t *testing.T) {
			var outs [2]outcome
			var overhead float64
			for ti, transport := range []string{"chan", "tcp"} {
				out := &outs[ti]
				cost := msg.NewCostModel(4, 5e-6, 1e-9)
				m := runOn(t, transport, 4, cost, func(ctx *machine.Ctx) error {
					ds := ctx.CollectiveOnce(func() any { return ch.make(ctx.Machine()) }).([]*dist.Distribution)
					a := New(ctx, "C", ch.dom, ds[0])
					a.FillFunc(ctx, val2)
					for k := 1; k < len(ds); k++ {
						var before msg.Snapshot
						var wantBytes, wantMsgs int64
						if err := ctx.Barrier(); err != nil {
							return err
						}
						if ctx.Rank() == 0 {
							before = ctx.Machine().Stats().Snapshot()
							for r := 0; r < 4; r++ {
								s := redist.Build(ds[k-1], ds[k], r, 4)
								wantBytes += int64(s.SendBytes())
								for _, tr := range s.Sends {
									if tr.Peer != r {
										wantMsgs++
									}
								}
							}
						}
						if err := ctx.Barrier(); err != nil {
							return err
						}
						if err := a.RedistributeTo(ctx, ds[k]); err != nil {
							return err
						}
						if err := ctx.Barrier(); err != nil {
							return err
						}
						if ctx.Rank() == 0 {
							// Barrier messages are zero-byte, so the payload and
							// data-message deltas isolate the redistribution.
							after := ctx.Machine().Stats().Snapshot()
							if got := after.TotalBytes() - before.TotalBytes(); got != wantBytes {
								t.Errorf("%s crossing %d (%v -> %v): moved %d payload bytes, schedules say %d",
									transport, k, ds[k-1], ds[k], got, wantBytes)
							}
							if got := after.TotalDataMsgs() - before.TotalDataMsgs(); got != wantMsgs {
								t.Errorf("%s crossing %d (%v -> %v): sent %d data messages, schedules say %d",
									transport, k, ds[k-1], ds[k], got, wantMsgs)
							}
						}
					}
					// Rank 0's last snapshot precedes any gather traffic.
					if err := ctx.Barrier(); err != nil {
						return err
					}
					got, err := a.GatherTo(ctx, 0)
					if ctx.Rank() == 0 {
						out.data = got
					}
					return err
				})
				sn := m.Stats().Snapshot()
				out.msgs, out.all, out.bytes, out.model = sn.TotalDataMsgs(), sn.TotalMsgs(), sn.TotalBytes(), cost.Makespan()
				overhead = cost.SendOverhead
			}
			c, tc := outs[0], outs[1]
			if !slices.Equal(c.data, tc.data) {
				t.Error("chan and tcp end with different contents")
			}
			if c.msgs != tc.msgs || c.bytes != tc.bytes {
				t.Errorf("traffic differs: chan %d msgs / %d bytes, tcp %d / %d", c.msgs, c.bytes, tc.msgs, tc.bytes)
			}
			if d := c.model - tc.model; d < 0 || d > float64(c.all-tc.all)*overhead*(1+1e-9) {
				t.Errorf("modelled makespan: chan %v, tcp %v: chan's %d extra tokens allow [0, %v]",
					c.model, tc.model, c.all-tc.all, float64(c.all-tc.all)*overhead)
			}
			if c.model == 0 {
				t.Error("cost model saw no traffic")
			}
		})
	}
}

// TestRedistributeBudgetInfeasible: a budget no candidate can satisfy
// fails symmetrically before any data moves, leaving the old
// distribution and all values intact.
func TestRedistributeBudgetInfeasible(t *testing.T) {
	dom := index.Dim(32)
	run(t, 4, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 4).Whole()
		d1 := dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg)
		d2 := dist.MustNew(dist.NewType(dist.CyclicDim(1)), dom, tg)
		a := New(ctx, "D", dom, d1)
		a.FillFunc(ctx, func(p index.Point) float64 { return float64(7 * p[0]) })
		ctx.Barrier()
		err := a.RedistributeTo(ctx, d2, MemBudget(1))
		if !errors.Is(err, redist.ErrNoPlan) {
			t.Errorf("rank %d: budget of 1 byte: got %v, want ErrNoPlan", ctx.Rank(), err)
		}
		ctx.Barrier()
		// The array must still be fully usable under the old distribution.
		if a.Epoch(ctx.Rank()) != 0 {
			t.Errorf("rank %d: epoch advanced to %d on failed plan", ctx.Rank(), a.Epoch(ctx.Rank()))
		}
		l := a.Local(ctx)
		l.ForEachOwned(func(p index.Point, v *float64) {
			if *v != float64(7*p[0]) {
				t.Errorf("rank %d: value at %v clobbered: %v", ctx.Rank(), p, *v)
			}
		})
		// And a feasible retry succeeds.
		if err := a.RedistributeTo(ctx, d2); err != nil {
			return err
		}
		bad := 0
		a.Local(ctx).ForEachOwned(func(p index.Point, v *float64) {
			if *v != float64(7*p[0]) {
				bad++
			}
		})
		if bad != 0 {
			t.Errorf("rank %d: %d wrong values after retry", ctx.Rank(), bad)
		}
		return nil
	})
}
