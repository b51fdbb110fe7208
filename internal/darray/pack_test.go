package darray

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
)

// packCases are distribution pairs whose per-dimension intersections
// exercise every addressing shape the span pack paths must handle:
// contiguous blocks, stride-P cyclic runs, multi-run cyclic(k) sets
// (non-simple local dimensions), shifted irregular blocks, and 2-D
// transposes.
var packCases = []struct {
	name     string
	dom      index.Domain
	from, to []dist.DimSpec
}{
	{"blockToCyclic1", index.Dim(64), []dist.DimSpec{dist.BlockDim()}, []dist.DimSpec{dist.CyclicDim(1)}},
	{"blockToCyclic3", index.Dim(61), []dist.DimSpec{dist.BlockDim()}, []dist.DimSpec{dist.CyclicDim(3)}},
	{"cyclic3ToBlock", index.Dim(61), []dist.DimSpec{dist.CyclicDim(3)}, []dist.DimSpec{dist.BlockDim()}},
	{"cyclic1ToCyclic4", index.Dim(64), []dist.DimSpec{dist.CyclicDim(1)}, []dist.DimSpec{dist.CyclicDim(4)}},
	{"bblockShift", index.Dim(64), []dist.DimSpec{dist.BBlockDim(10, 20, 30, 64)}, []dist.DimSpec{dist.BBlockDim(25, 40, 50, 64)}},
	{"colsToRows", index.Dim(12, 16), []dist.DimSpec{dist.ElidedDim(), dist.BlockDim()}, []dist.DimSpec{dist.BlockDim(), dist.ElidedDim()}},
	{"block2dToCyclicCols", index.Dim(12, 16), []dist.DimSpec{dist.BlockDim(), dist.ElidedDim()}, []dist.DimSpec{dist.CyclicDim(2), dist.ElidedDim()}},
}

// packGrid serializes the values at the grid's points in canonical order
// — the per-point reference implementation of the packing order that
// Local.appendPacked (fused span pack+encode) must match byte for byte.
func packGrid(l *Local, g index.Grid) []float64 {
	out := make([]float64, 0, g.Count())
	g.ForEach(func(p index.Point) bool {
		out = append(out, l.data[l.Offset(p)])
		return true
	})
	return out
}

// unpackGrid stores values (canonical order) at the grid's points — the
// per-point reference counterpart of Local.unpackWire.
func unpackGrid(l *Local, g index.Grid, vals []float64) {
	i := 0
	g.ForEach(func(p index.Point) bool {
		l.data[l.Offset(p)] = vals[i]
		i++
		return true
	})
	if i != len(vals) {
		panic(fmt.Sprintf("darray: unpack count mismatch: %d points, %d values", i, len(vals)))
	}
}

// TestPackUnpackMatchesPerPointReference holds the span-based wire path
// (appendPacked -> unpackWire) to exact equivalence with the per-point
// reference path (packGrid -> EncodeFloat64s -> DecodeFloat64s ->
// unpackGrid) on every transfer grid of each distribution pair,
// including the strided and non-contiguous local sets cyclic(k)
// produces.
func TestPackUnpackMatchesPerPointReference(t *testing.T) {
	const np = 4
	for _, tc := range packCases {
		t.Run(tc.name, func(t *testing.T) {
			run(t, np, func(ctx *machine.Ctx) error {
				rank := ctx.Rank()
				tg := ctx.Machine().ProcsDim("P", np).Whole()
				fromD := dist.MustNew(dist.NewType(tc.from...), tc.dom, tg)
				toD := dist.MustNew(dist.NewType(tc.to...), tc.dom, tg)
				val := func(p index.Point) float64 {
					v := 0.0
					for k, i := range p {
						v = v*1000 + float64(i+7*k)
					}
					return v
				}
				src := New(ctx, "S"+tc.name, tc.dom, fromD)
				src.FillFunc(ctx, val)
				// Two identically distributed destinations: one written
				// through the wire path, one through the reference path.
				gotA := New(ctx, "W"+tc.name, tc.dom, toD)
				refA := New(ctx, "R"+tc.name, tc.dom, toD)
				ctx.Barrier() // all sources filled; reads below are cross-rank
				got, ref := gotA.Local(ctx), refA.Local(ctx)
				covered := 0
				for peer := 0; peer < np; peer++ {
					g := fromD.LocalGrid(peer).Intersect(toD.LocalGrid(rank))
					if g.Empty() {
						continue
					}
					covered += g.Count()
					sl := src.locals[peer] // shared handle: read-only after the barrier
					wire := sl.appendPacked(nil, g)
					vals := packGrid(sl, g)
					if want := msg.EncodeFloat64s(vals); !bytes.Equal(wire, want) {
						t.Errorf("%s: rank %d <- %d: appendPacked differs from per-point encoding on %v", tc.name, rank, peer, g)
					}
					got.unpackWire(g, wire)
					unpackGrid(ref, g, msg.DecodeFloat64s(wire))
				}
				if covered != got.Count() {
					t.Errorf("%s: rank %d: transfer grids cover %d of %d owned points", tc.name, rank, covered, got.Count())
				}
				got.ForEachOwned(func(p index.Point, v *float64) {
					if want := val(p); *v != want {
						t.Errorf("%s: rank %d: wire path [%v] = %v, want %v", tc.name, rank, p, *v, want)
					}
					if rv := ref.At(p); *v != rv {
						t.Errorf("%s: rank %d: wire path [%v] = %v, reference path %v", tc.name, rank, p, *v, rv)
					}
				})
				return nil
			})
		})
	}
}

// TestCopyGridMatchesReference checks the local-move span copy against
// the reference pack/unpack pair on the same transfer grids (rank's own
// intersection — exactly what RedistributeTo's Peer==rank branch uses).
func TestCopyGridMatchesReference(t *testing.T) {
	const np = 4
	for _, tc := range packCases {
		t.Run(tc.name, func(t *testing.T) {
			run(t, np, func(ctx *machine.Ctx) error {
				rank := ctx.Rank()
				tg := ctx.Machine().ProcsDim("P", np).Whole()
				fromD := dist.MustNew(dist.NewType(tc.from...), tc.dom, tg)
				toD := dist.MustNew(dist.NewType(tc.to...), tc.dom, tg)
				src := New(ctx, "cs"+tc.name, tc.dom, fromD)
				src.FillFunc(ctx, func(p index.Point) float64 {
					v := 0.0
					for _, i := range p {
						v = v*500 + float64(i)
					}
					return v
				})
				gotA := New(ctx, "cw"+tc.name, tc.dom, toD)
				refA := New(ctx, "cr"+tc.name, tc.dom, toD)
				g := fromD.LocalGrid(rank).Intersect(toD.LocalGrid(rank))
				if !g.Empty() {
					sl := src.Local(ctx)
					copyGrid(gotA.Local(ctx), sl, g)
					unpackGrid(refA.Local(ctx), g, packGrid(sl, g))
					got, ref := gotA.Local(ctx), refA.Local(ctx)
					g.ForEach(func(p index.Point) bool {
						if got.At(p) != ref.At(p) {
							t.Errorf("%s: rank %d: copyGrid[%v] = %v, reference %v", tc.name, rank, p, got.At(p), ref.At(p))
							return false
						}
						return true
					})
				}
				return nil
			})
		})
	}
}

// TestPackAllocsPerRun pins the steady-state allocation behaviour of the
// span pack/unpack pair: with a recycled buffer the cost is a small
// constant (the run iterator's point/position slices and closure), not a
// function of the element count — the property that makes E3/E4
// allocation counts flat in N.
func TestPackAllocsPerRun(t *testing.T) {
	m := machine.New(1)
	defer m.Close()
	if err := m.Run(func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 1).Whole()
		dom := index.Dim(64, 64)
		d := dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), dom, tg)
		a := New(ctx, "alloc", dom, d)
		a.FillFunc(ctx, func(p index.Point) float64 { return float64(p[0] + 100*p[1]) })
		l := a.Local(ctx)
		// A strided, multi-run subgrid: 21×30 elements, no contiguous
		// fast path along either dimension boundary.
		g := index.Grid{Dims: []index.RunSet{
			index.NewRunSet(index.NewRun(1, 31, 2), index.NewRun(40, 48, 2)),
			index.NewRunSet(index.NewRun(2, 60, 2)),
		}}
		buf := l.appendPacked(nil, g)
		const iterOverhead = 8 // run-iterator scratch + closure; size-independent
		if n := testing.AllocsPerRun(100, func() {
			buf = l.appendPacked(buf[:0], g)
		}); n > iterOverhead {
			t.Errorf("appendPacked with recycled buffer: %v allocs/run for %d elements, want <= %d", n, g.Count(), iterOverhead)
		}
		if n := testing.AllocsPerRun(100, func() {
			l.unpackWire(g, buf)
		}); n > iterOverhead {
			t.Errorf("unpackWire: %v allocs/run for %d elements, want <= %d", n, g.Count(), iterOverhead)
		}
		if n := testing.AllocsPerRun(100, func() {
			copyGrid(l, l, g)
		}); n > iterOverhead {
			t.Errorf("copyGrid: %v allocs/run for %d elements, want <= %d", n, g.Count(), iterOverhead)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestGhostExchangeErrorOnClosedTransport checks the error-returning
// ghost API: a transport failure surfaces as a wrapped msg.ErrClosed
// from ExchangeAllGhosts instead of a panic.
func TestGhostExchangeErrorOnClosedTransport(t *testing.T) {
	tp := msg.NewChanTransport(2)
	m := machine.New(2, machine.WithTransport(tp))
	defer m.Close()
	errs := make([]error, 2)
	if err := m.Run(func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 2).Whole()
		d := dist.MustNew(dist.NewType(dist.BlockDim()), index.Dim(16), tg)
		a := New(ctx, "G", index.Dim(16), d, WithGhost(1))
		a.Fill(ctx, 1)
		ctx.Barrier()
		if ctx.Rank() == 0 {
			tp.Close()
		}
		errs[ctx.Rank()] = a.ExchangeAllGhosts(ctx)
		return nil
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	for rank, err := range errs {
		if err == nil {
			t.Errorf("rank %d: ExchangeAllGhosts = nil, want wrapped msg.ErrClosed", rank)
			continue
		}
		if !errors.Is(err, msg.ErrClosed) {
			t.Errorf("rank %d: ExchangeAllGhosts = %v, want errors.Is msg.ErrClosed", rank, err)
		}
	}
}
