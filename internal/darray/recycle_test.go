package darray

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/redist"
)

// A DISTRIBUTE back to a mapping the array has held before reuses the
// storage retired then, and clears it only where something could read it
// unwritten.  These tests hold recycled storage to what a fresh
// allocation gives: every owned element has its value, everything else
// reads 0.

const poison = -7777.5

// poisonRetired overwrites every Local this rank has parked, so an
// element a later DISTRIBUTE fails to write cannot pass as a stale value
// that happens to be right.  Peers may still be pulling from the storage
// the last move retired, so it first settles the window, as the next
// DISTRIBUTE would before recycling anything.
func poisonRetired(t *testing.T, ctx *machine.Ctx, a *Array) (n int) {
	t.Helper()
	if err := a.win.Settle(ctx.Comm()); err != nil {
		t.Fatalf("rank %d: settle: %v", ctx.Rank(), err)
	}
	for _, l := range a.own[ctx.Rank()].retired {
		for i := range l.data {
			l.data[i] = poison
		}
		n++
	}
	return n
}

// cycled declares V under d1, fills it with val2 and moves it to d2 and
// back, so that storage laid out for d2 is parked on every rank.
func cycled(ctx *machine.Ctx, dom index.Domain, d1, d2 *dist.Distribution, opts []RedistOption) (*Array, error) {
	a := New(ctx, "V", dom, d1)
	a.FillFunc(ctx, val2)
	for _, d := range []*dist.Distribution{d2, d1} {
		if err := a.RedistributeTo(ctx, d, opts...); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// checkStorage compares the whole of this rank's storage — owned
// elements and margins — with want on the owned points and 0 elsewhere.
func checkStorage(t *testing.T, ctx *machine.Ctx, a *Array, what string, want func(index.Point) float64) {
	t.Helper()
	l := a.Local(ctx)
	exp := make([]float64, len(l.Data()))
	l.ForEachOwned(func(p index.Point, _ *float64) { exp[l.Offset(p)] = want(p) })
	for i, v := range l.Data() {
		if v != exp[i] {
			t.Errorf("rank %d %s: storage[%d] = %v, want %v (alloc %v, ghosts %v/%v)",
				ctx.Rank(), what, i, v, exp[i], l.AllocShape(), l.gLo, l.gHi)
			return
		}
	}
}

// TestRecycledGhostsReadZero alternates a ghosted array between two
// mappings with its margins filled before every move: the margins of the
// storage a move lands in read 0 every time, recycled or not.
func TestRecycledGhostsReadZero(t *testing.T) {
	dom := index.Dim(12, 10)
	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			runOn(t, transport, 4, nil, func(ctx *machine.Ctx) error {
				grid := ctx.Machine().ProcsDim("G", 2, 2).Whole()
				line := ctx.Machine().ProcsDim("P", 4).Whole()
				d1 := dist.MustNew(dist.NewType(dist.BlockDim(), dist.BlockDim()), dom, grid)
				d2 := dist.MustNew(dist.NewType(dist.ElidedDim(), dist.BlockDim()), dom, line)
				a := New(ctx, "H", dom, d1, WithGhost(1, 1))
				a.FillFunc(ctx, val2)
				for round, d := range []*dist.Distribution{d2, d1, d2, d1, d2} {
					if err := a.ExchangeAllGhosts(ctx); err != nil { // non-zero margins in what gets retired
						return err
					}
					if err := a.RedistributeTo(ctx, d); err != nil {
						return err
					}
					checkStorage(t, ctx, a, fmt.Sprintf("move %d", round), val2)
					// On shared memory a neighbour's next exchange puts
					// straight into these margins: it waits for the check.
					if err := ctx.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// TestNoTransferOntoRecycledStorage: a NOTRANSFER move moves nothing, so
// what it does not keep in place must read 0 — also when the storage it
// lands in last held the array's full values under that same mapping.
func TestNoTransferOntoRecycledStorage(t *testing.T) {
	dom := index.Dim(16)
	run(t, 4, func(ctx *machine.Ctx) error {
		rank := ctx.Rank()
		tg := ctx.Machine().ProcsDim("P", 4).Whole()
		blk := dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg)
		cyc := dist.MustNew(dist.NewType(dist.CyclicDim(1)), dom, tg)
		val := func(p index.Point) float64 { return float64(p[0] + 1) }
		a := New(ctx, "N", dom, blk)
		a.FillFunc(ctx, val)
		for _, d := range []*dist.Distribution{cyc, blk} { // retires the cyclic storage, full of values
			if err := a.RedistributeTo(ctx, d); err != nil {
				return err
			}
		}
		if _, ok := a.own[rank].retired[cyc.Fingerprint()]; !ok {
			t.Errorf("rank %d: no retired cyclic storage; the test would be vacuous", rank)
		}
		if err := a.RedistributeTo(ctx, cyc, NoTransfer()); err != nil {
			return err
		}
		checkStorage(t, ctx, a, "after NOTRANSFER", func(p index.Point) float64 {
			if blk.Owners(p)[0] == rank {
				return val(p) // already in place: kept
			}
			return 0
		})
		return nil
	})
}

// recycleCases are the executors a transferring DISTRIBUTE can run: the
// direct step (pulled on shared memory, packed on TCP) and, under a
// budget a sixteenth of the array, the planner's bounded steps.
var recycleCases = []struct {
	name string
	opts []RedistOption
}{
	{"direct", nil},
	{"budget", []RedistOption{MemBudget(2048)}},
}

// TestRecycledStorageOverwrittenWhole poisons the parked storage and
// changes the array's values before moving back onto it: every owned
// element must hold the new value, whichever executor moved it.
func TestRecycledStorageOverwrittenWhole(t *testing.T) {
	dom := index.Dim(64, 64)
	val3 := func(p index.Point) float64 { return val2(p) + 0.5 }
	for _, transport := range []string{"chan", "tcp"} {
		for _, rc := range recycleCases {
			t.Run(transport+"/"+rc.name, func(t *testing.T) {
				runOn(t, transport, 4, nil, func(ctx *machine.Ctx) error {
					tg := ctx.Machine().ProcsDim("P", 4).Whole()
					cols := dist.MustNew(dist.NewType(dist.ElidedDim(), dist.BlockDim()), dom, tg)
					rows := dist.MustNew(dist.NewType(dist.CyclicDim(3), dist.ElidedDim()), dom, tg)
					a, err := cycled(ctx, dom, cols, rows, rc.opts)
					if err != nil {
						return err
					}
					a.FillFunc(ctx, val3)
					if poisonRetired(t, ctx, a) == 0 {
						t.Errorf("rank %d: nothing retired; the test would be vacuous", ctx.Rank())
					}
					for _, d := range []*dist.Distribution{rows, cols} {
						if err := a.RedistributeTo(ctx, d, rc.opts...); err != nil {
							return err
						}
						checkStorage(t, ctx, a, "under "+d.String(), val3)
						poisonRetired(t, ctx, a)
					}
					return nil
				})
			})
		}
	}
}

// TestRecycledStorageAfterFailedPlan fails a DISTRIBUTE onto parked
// storage — no decomposition fits an 8-byte budget, so every rank parks
// the storage again, unpublished — and then moves to the same mapping for
// real: the storage, poisoned in between as a half-finished exchange
// would leave it, comes back whole and the failure published nothing.
func TestRecycledStorageAfterFailedPlan(t *testing.T) {
	dom := index.Dim(64, 64)
	val3 := func(p index.Point) float64 { return val2(p) + 0.5 }
	for _, transport := range []string{"chan", "tcp"} {
		for _, rc := range recycleCases {
			t.Run(transport+"/"+rc.name, func(t *testing.T) {
				runOn(t, transport, 4, nil, func(ctx *machine.Ctx) error {
					rank := ctx.Rank()
					tg := ctx.Machine().ProcsDim("P", 4).Whole()
					cols := dist.MustNew(dist.NewType(dist.ElidedDim(), dist.BlockDim()), dom, tg)
					rows := dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), dom, tg)
					a, err := cycled(ctx, dom, cols, rows, rc.opts)
					if err != nil {
						return err
					}
					if err := a.RedistributeTo(ctx, rows, MemBudget(8)); !errors.Is(err, redist.ErrNoPlan) {
						t.Errorf("rank %d: 8-byte budget: err = %v, want ErrNoPlan", rank, err)
					}
					if _, ok := a.own[rank].retired[rows.Fingerprint()]; !ok {
						t.Errorf("rank %d: the failed move did not park its storage again", rank)
					}
					checkStorage(t, ctx, a, "after the failed move", val2)
					a.FillFunc(ctx, val3)
					poisonRetired(t, ctx, a)
					if err := a.RedistributeTo(ctx, rows, rc.opts...); err != nil {
						return err
					}
					checkStorage(t, ctx, a, "after the move that followed", val3)
					return nil
				})
			})
		}
	}
}

// TestRecycledStorageFailedExchange fails a DISTRIBUTE onto parked,
// poisoned storage in mid-exchange, as the fault matrix does (rank 1's
// first frame is dropped; only deadlines unblock its receivers): a rank
// that fails may have written part of the new storage, publishes none of
// it and still reads its old Local; a rank that completes reads the new
// one whole.  Some rank must fail — in the move, or, when the frame was a
// done token, in the offerer's next Settle.
func TestRecycledStorageFailedExchange(t *testing.T) {
	const np = 4
	dom := index.Dim(64, 64)
	for _, transport := range []string{"chan", "tcp"} {
		for _, rc := range recycleCases {
			t.Run(transport+"/"+rc.name, func(t *testing.T) {
				plan := &msg.FaultPlan{StartDisarmed: true, Rules: []msg.FaultRule{
					{Kind: msg.FaultDrop, Rank: faultRank, Peer: -1, Count: 1}}}
				var base msg.Transport = msg.NewChanTransport(np)
				if transport == "tcp" {
					tcp, err := msg.NewTCPTransport(np)
					if err != nil {
						t.Fatal(err)
					}
					base = tcp
				}
				ft := msg.NewFaultTransport(base, plan)
				cfg := msg.RetryPolicy{Timeout: 20 * time.Millisecond, Retries: 3}
				m := machine.New(np, machine.WithTransport(ft), machine.WithRetry(cfg))
				defer m.Close()
				var failed atomic.Int32
				if err := m.Run(func(ctx *machine.Ctx) error {
					rank := ctx.Rank()
					tg := ctx.Machine().ProcsDim("P", np).Whole()
					cols := dist.MustNew(dist.NewType(dist.ElidedDim(), dist.BlockDim()), dom, tg)
					rows := dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), dom, tg)
					a, err := cycled(ctx, dom, cols, rows, rc.opts)
					if err != nil {
						return err
					}
					poisonRetired(t, ctx, a)
					if err := ctx.Barrier(); err != nil {
						return err
					}
					if rank == faultRank {
						ft.Arm(faultRank)
					}
					err = a.RedistributeTo(ctx, rows, rc.opts...)
					moved := err == nil
					if moved {
						// A lost done token surfaces at the offerer's next Settle.
						err = a.win.Settle(ctx.Comm())
					}
					if rank == faultRank {
						ft.Disarm(faultRank)
					}
					if err != nil {
						failed.Add(1)
					}
					if moved {
						if !a.Dist(rank).Equal(rows) {
							t.Errorf("rank %d: completed DISTRIBUTE left %v", rank, a.DistType(rank))
						}
						checkStorage(t, ctx, a, "after the completed move", val2)
						return nil
					}
					if !a.Dist(rank).Equal(cols) {
						t.Errorf("rank %d: failed DISTRIBUTE left %v published", rank, a.DistType(rank))
					}
					checkStorage(t, ctx, a, "after the failed move", val2)
					return nil
				}); err != nil {
					t.Fatalf("Run: %v", err)
				}
				if failed.Load() == 0 {
					t.Error("the DISTRIBUTE survived a dropped frame on every rank")
				}
			})
		}
	}
}

// TestRecycledStorageFreshBounds moves an array to fresh B_BLOCK bounds
// twenty times, as PIC's rebalancing does: no move returns to a mapping
// the array held before, so storage parked under its own mapping is
// never asked for again, and storage found by mapping alone would be
// allocated anew by every move.  Here a move lands in the storage the
// move before it parked, laid out anew, and allocates data only when its
// block is larger than that storage holds: after four moves have given
// every rank a block of the largest size, at most twice in the sixteen
// moves left.  With the parked storage poisoned before every move, each
// holds what a fresh allocation would: every owned element its value
// and, with ghosts, margins that read 0.
func TestRecycledStorageFreshBounds(t *testing.T) {
	const np, moves = 4, 20
	dom := index.Dim(60)
	val := func(p index.Point) float64 { return float64(p[0]) + 0.5 }
	for _, ghost := range []int{0, 1} {
		t.Run(fmt.Sprint("ghost", ghost), func(t *testing.T) {
			run(t, np, func(ctx *machine.Ctx) error {
				tg := ctx.Machine().ProcsDim("P", np).Whole()
				// Move i: blocks 15±a and 15±b rotated by i; the first four
				// give every rank the largest block, 18 elements.
				bblock := func(i int) *dist.Distribution {
					a, b := i%5-2, (i/5)%5-2
					if i < 4 {
						a, b = 3, 0
					}
					sz := []int{15 + a, 15 - a, 15 + b, 15 - b}
					bounds := make([]int, np)
					for r := range bounds {
						bounds[r] = sz[(r+i)%np]
						if r > 0 {
							bounds[r] += bounds[r-1]
						}
					}
					return dist.MustNew(dist.NewType(dist.BBlockDim(bounds...)), dom, tg)
				}
				a := New(ctx, "R", dom, dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg), WithGhost(ghost))
				a.FillFunc(ctx, val)
				seen, fresh := map[*float64]bool{}, 0
				for i := 0; i < moves; i++ {
					poisonRetired(t, ctx, a)
					if err := a.RedistributeTo(ctx, bblock(i)); err != nil {
						return err
					}
					checkStorage(t, ctx, a, fmt.Sprint("move ", i), val)
					if data := a.Local(ctx).Data(); len(data) > 0 {
						if !seen[&data[0]] && i >= 4 {
							fresh++
						}
						seen[&data[0]] = true
					}
				}
				if fresh > 2 {
					t.Errorf("rank %d: %d of moves 4-%d allocated their data, want at most 2", ctx.Rank(), fresh, moves-1)
				}
				return nil
			})
		})
	}
}
