package darray

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
)

// A DISTRIBUTE has no barrier: each rank commits once its own data has
// landed.  These tests hold the two orderings a barrier used to give for
// free — a neighbour's ghost put lands in storage the target has
// committed, and storage a peer still pulls from is not recycled — with
// ranks deliberately out of step, on both transports (run them under
// -race: make check-redist does).

// checkGhosts compares every face ghost cell of this rank's storage — the
// layer next to the owned block along each distributed dimension, over
// the owned extent of the others — with want.
func checkGhosts(t *testing.T, ctx *machine.Ctx, a *Array, what string, want func(index.Point) float64) {
	t.Helper()
	l := a.Local(ctx)
	lo, hi, ok := l.Segment()
	if !ok || l.Count() == 0 {
		return
	}
	r := len(lo)
	for k := 0; k < r; k++ {
		var layers []int
		if l.gLo[k] > 0 {
			layers = append(layers, lo[k]-1)
		}
		if l.gHi[k] > 0 {
			layers = append(layers, hi[k]+1)
		}
		for _, g := range layers {
			tri := make([][3]int, r)
			for j := range tri {
				tri[j] = [3]int{lo[j], hi[j], 1}
			}
			tri[k] = [3]int{g, g, 1}
			index.NewSection(tri...).ForEach(func(p index.Point) bool {
				if got := l.At(p); got != want(p) {
					t.Errorf("rank %d %s: ghost %v = %v, want %v", ctx.Rank(), what, p, got, want(p))
					return false
				}
				return true
			})
		}
	}
}

// TestDistributeThenGhostsDelayedRank moves a ghosted array and exchanges
// its ghosts at once, with one rank (a different one each round) held
// back before its ring: its neighbours reach the exchange while it still
// holds its old Local.  A put into that storage, or one addressed by its
// geometry, would leave a ghost stale; every face ghost must hold its
// neighbour's value exactly.
func TestDistributeThenGhostsDelayedRank(t *testing.T) {
	dom := index.Dim(24, 20)
	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			runOn(t, transport, 4, nil, func(ctx *machine.Ctx) error {
				line := ctx.Machine().ProcsDim("P", 4).Whole()
				grid := ctx.Machine().ProcsDim("G", 2, 2).Whole()
				cols := dist.MustNew(dist.NewType(dist.ElidedDim(), dist.BlockDim()), dom, line)
				rows := dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), dom, line)
				blocks := dist.MustNew(dist.NewType(dist.BlockDim(), dist.BlockDim()), dom, grid)
				a := New(ctx, "G", dom, cols, WithGhost(1, 1))
				a.FillFunc(ctx, val2)
				for round, d := range []*dist.Distribution{rows, blocks, cols, rows, cols, blocks} {
					if ctx.Rank() == round%4 {
						time.Sleep(20 * time.Millisecond)
					}
					if err := a.RedistributeTo(ctx, d); err != nil {
						return err
					}
					if err := a.ExchangeAllGhosts(ctx); err != nil {
						return err
					}
					checkGhosts(t, ctx, a, fmt.Sprintf("round %d (%v)", round, d), val2)
				}
				return nil
			})
		})
	}
}

// TestDistributeLaggingPuller slows every window operation of rank 3, so
// it is still pulling from its peers' storage of one move while they
// start the move back, which recycles exactly that storage — and, the
// array being ghosted, clears all of it first.  Each peer's Settle must
// hold the recycling until rank 3's done tokens are in: contents stay
// bit-exact, and the race detector sees no write to storage being read.
func TestDistributeLaggingPuller(t *testing.T) {
	dom := index.Dim(32, 32)
	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			const np = 4
			var base msg.Transport = msg.NewChanTransport(np)
			if transport == "tcp" {
				tcp, err := msg.NewTCPTransport(np)
				if err != nil {
					t.Fatal(err)
				}
				base = tcp
			}
			plan := &msg.FaultPlan{Rules: []msg.FaultRule{
				{Kind: msg.FaultSlow, Rank: 3, Peer: -1, Delay: 2 * time.Millisecond, Win: true}}}
			m := machine.New(np, machine.WithTransport(msg.NewFaultTransport(base, plan)))
			defer m.Close()
			if err := m.Run(func(ctx *machine.Ctx) error {
				tg := ctx.Machine().ProcsDim("P", np).Whole()
				cols := dist.MustNew(dist.NewType(dist.ElidedDim(), dist.BlockDim()), dom, tg)
				rows := dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), dom, tg)
				a := New(ctx, "L", dom, cols, WithGhost(1, 1))
				a.FillFunc(ctx, val2)
				for round, d := range []*dist.Distribution{rows, cols, rows, cols, rows, cols} {
					if err := a.RedistributeTo(ctx, d); err != nil {
						return err
					}
					checkStorage(t, ctx, a, fmt.Sprintf("move %d", round), val2)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
