package darray

import (
	"bytes"
	"errors"
	"fmt"
	"math"
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

// forEachInRectOrder calls f with g's points in rect order: one
// sub-grid per product of g's per-dimension runs, dimension 0's run
// varying fastest, each in canonical order — the per-point statement of
// the order appendRects lays g's rects out in.  A grid whose dimensions
// but the last are single runs is in canonical order.
func forEachInRectOrder(g index.Grid, f func(p index.Point)) {
	for i, n := 0, rectCount(g); i < n; i++ {
		sub := index.Grid{Dims: make([]index.RunSet, g.Rank())}
		at := i
		for k, rs := range g.Dims {
			sub.Dims[k] = index.RunSet{rs[at%len(rs)]}
			at /= len(rs)
		}
		sub.ForEach(func(p index.Point) bool { f(p); return true })
	}
}

// packGrid serializes the values at the grid's points in rect order —
// the per-point reference implementation of the packing order that
// Local.AppendPacked must match byte for byte.
func packGrid(l *Local, g index.Grid) []float64 {
	out := make([]float64, 0, g.Count())
	forEachInRectOrder(g, func(p index.Point) { out = append(out, l.data[l.Offset(p)]) })
	return out
}

// unpackGrid stores values (rect order) at the grid's points — the
// per-point reference counterpart of Local.UnpackWire.
func unpackGrid(l *Local, g index.Grid, vals []float64) {
	i := 0
	forEachInRectOrder(g, func(p index.Point) {
		l.data[l.Offset(p)] = vals[i]
		i++
	})
	if i != len(vals) {
		panic(fmt.Sprintf("darray: unpack count mismatch: %d points, %d values", i, len(vals)))
	}
}

// TestPackUnpackMatchesPerPointReference holds the rect wire path
// (AppendPacked -> UnpackWire) to exact equivalence with the per-point
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
					wire := sl.AppendPacked(nil, g)
					vals := packGrid(sl, g)
					if want := msg.EncodeFloat64s(vals); !bytes.Equal(wire, want) {
						t.Errorf("%s: rank %d <- %d: AppendPacked differs from per-point encoding on %v", tc.name, rank, peer, g)
					}
					got.UnpackWire(g, wire)
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

// TestCopyGridMatchesReference checks the self-copy (copyPlan's rect
// pairs through msg.CopyRect) against the reference pack/unpack pair on
// the same transfer grids (rank's own intersection — exactly what a
// DISTRIBUTE's LocalKeep copies).
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
					got, ref := gotA.Local(ctx), refA.Local(ctx)
					copyPlan(&got.layout, &sl.layout, g, nil, nil).copy(got.data, sl.data)
					unpackGrid(ref, g, packGrid(sl, g))
					g.ForEach(func(p index.Point) bool {
						if got.At(p) != ref.At(p) {
							t.Errorf("%s: rank %d: self-copy[%v] = %v, reference %v", tc.name, rank, p, got.At(p), ref.At(p))
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

// TestPackUnpackGatherMatchesPerPointReference gathers an array under
// each distribution of every packCases pair, and a ghosted (BLOCK, BLOCK)
// one, and holds the dense result point by point to the values filled
// in: every part crosses as its grid's rects and lands in the rects the
// grid has in the result, several runs in a non-last dimension
// (block2dToCyclicCols) included.
func TestPackUnpackGatherMatchesPerPointReference(t *testing.T) {
	const np = 4
	val := func(p index.Point) float64 {
		v := 0.5
		for k, i := range p {
			v = v*1000 + float64(i+7*k)
		}
		return v
	}
	type gcase struct {
		name  string
		dom   index.Domain
		specs []dist.DimSpec
		procs []int
		opts  []Option
	}
	var cases []gcase
	for _, tc := range packCases {
		cases = append(cases, gcase{tc.name + "/from", tc.dom, tc.from, []int{np}, nil}, gcase{tc.name + "/to", tc.dom, tc.to, []int{np}, nil})
	}
	cases = append(cases, gcase{"ghosted", index.Dim(13, 9), []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, []int{2, 2}, []Option{WithGhost(1, 1)}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run(t, np, func(ctx *machine.Ctx) error {
				tg := ctx.Machine().ProcsDim(fmt.Sprint("P", tc.procs), tc.procs...).Whole()
				a := New(ctx, "g", tc.dom, dist.MustNew(dist.NewType(tc.specs...), tc.dom, tg), tc.opts...)
				a.FillFunc(ctx, val)
				got, err := a.GatherTo(ctx, 0)
				if err != nil || ctx.Rank() != 0 {
					return err
				}
				tc.dom.WholeSection().ForEach(func(p index.Point) bool {
					if g := got[tc.dom.Offset(p)]; g != val(p) {
						t.Errorf("%s: gathered %v = %v, want %v", tc.name, p, g, val(p))
						return false
					}
					return true
				})
				return nil
			})
		})
	}
}

// TestUnpackPartRunsPackCases runs the resized restore's UnpackPart on
// every packCases pair: the saved segment is a rank's grid under the
// first distribution, in canonical order, and the restoring Local holds
// another rank's grid under the second.
func TestUnpackPartRunsPackCases(t *testing.T) {
	const np = 4
	m := machine.New(np)
	defer m.Close()
	tg := m.ProcsDim("P", np).Whole()
	for _, tc := range packCases {
		fromD := dist.MustNew(dist.NewType(tc.from...), tc.dom, tg)
		toD := dist.MustNew(dist.NewType(tc.to...), tc.dom, tg)
		for p := 0; p < np; p++ {
			for q := 0; q < np; q++ {
				saved, mine := fromD.LocalGrid(p), toD.LocalGrid(q)
				if part := saved.Intersect(mine); !part.Empty() {
					checkUnpackPart(t, fmt.Sprintf("%s: saved %d, mine %d", tc.name, p, q), part, saved, mine)
				}
			}
		}
	}
}

// TestDimSpanInterleavedRuns: every run of every transfer grid of BLOCK
// <-> CYCLIC(2) and CYCLIC(2) <-> CYCLIC(3) maps affinely into both
// ends' storage, element for element the position RunSet.IndexOf gives.
// Under CYCLIC(k > 1) a rank's owned runs interleave — CYCLIC(2) at P = 2
// on 16 elements owns {1:13:4 2:14:4} — and a run inside the second one
// (2:6:4) must be found by membership, not by span.
func TestDimSpanInterleavedRuns(t *testing.T) {
	m := machine.New(4)
	defer m.Close()
	block, cyc2, cyc3 := dist.BlockDim(), dist.CyclicDim(2), dist.CyclicDim(3)
	pairs := [][2]dist.DimSpec{{block, cyc2}, {cyc2, block}, {cyc2, cyc3}, {cyc3, cyc2}}
	runs := 0
	for _, np := range []int{2, 3, 4} {
		tg := m.ProcsDim(fmt.Sprint("P", np), np).Whole()
		for _, n := range []int{16, 23} {
			dom := index.Dim(n)
			for _, pr := range pairs {
				from := dist.MustNew(dist.NewType(pr[0]), dom, tg)
				to := dist.MustNew(dist.NewType(pr[1]), dom, tg)
				for p := 0; p < np; p++ {
					for q := 0; q < np; q++ {
						g := from.LocalGrid(p).Intersect(to.LocalGrid(q))
						for _, owner := range []index.Grid{from.LocalGrid(p), to.LocalGrid(q)} {
							l := newLayout(owner, nil, dom)
							for _, r := range g.Dims[0] {
								li0, step := l.dimSpan(0, r)
								for j := 0; j < r.Count(); j++ {
									if want := owner.Dims[0].IndexOf(r.At(j)); li0+j*step != want {
										t.Errorf("%v -> %v on %d of %d: run %v in %v: element %d at %d, want %d",
											pr[0], pr[1], p, n, r, owner.Dims[0], j, li0+j*step, want)
									}
								}
								runs++
							}
						}
					}
				}
			}
		}
	}
	l := newLayout(index.Grid{Dims: []index.RunSet{index.NewRunSet(index.NewRun(1, 13, 4), index.NewRun(2, 14, 4))}}, nil, index.Domain{})
	if li0, step := l.dimSpan(0, index.NewRun(2, 6, 4)); li0 != 4 || step != 1 {
		t.Errorf("run 2:6:4 of {1:13:4 2:14:4} at (%d, %d), want (4, 1)", li0, step)
	}
	t.Logf("%d runs checked", runs)
}

// owned is the index set rank r of np owns along a dimension 0..n-1
// under the named distribution.
func owned(kind string, n, np, r int) index.RunSet {
	switch kind {
	case "block":
		b := (n + np - 1) / np
		return index.NewRunSet(index.NewRun(r*b, min((r+1)*b, n)-1, 1))
	case "cyclic1":
		return index.NewRunSet(index.NewRun(r, n-1, np))
	case "cyclic3":
		var runs []index.Run
		for j := 0; j < 3; j++ {
			runs = append(runs, index.NewRun(3*r+j, n-1, 3*np))
		}
		return index.NewRunSet(runs...)
	case "bblock":
		// Uneven general blocks: rank r gets r+1 shares of n.
		total := np * (np + 1) / 2
		lo := n * (r * (r + 1) / 2) / total
		hi := n*((r+1)*(r+2)/2)/total - 1
		return index.NewRunSet(index.NewRun(lo, hi, 1))
	}
	panic(kind)
}

// checkUnpackPart unpacks part of a payload of whole into storage laid
// out over mine (part = whole ∩ mine) and holds every element of mine to
// its value, or to 0 outside part.
func checkUnpackPart(t *testing.T, name string, part, whole, mine index.Grid) {
	t.Helper()
	value := func(p index.Point) float64 {
		v := 1.0
		for k, i := range p {
			v += math.Sin(float64(i*(k+3))) * math.Exp(float64(k))
		}
		return v
	}
	var payload []byte
	whole.ForEach(func(p index.Point) bool {
		payload = msg.AppendFloat64s(payload, []float64{value(p)})
		return true
	})
	l := &Local{layout: newLayout(mine, nil, index.Domain{})}
	l.data = make([]float64, l.size)
	l.UnpackPart(part, whole, payload)
	mine.ForEach(func(p index.Point) bool {
		want := 0.0
		if part.Contains(p) {
			want = value(p)
		}
		if got := l.At(p); got != want {
			t.Errorf("%s: [%v] = %v, want %v (part %v of %v)", name, p, got, want, part, whole)
			return false
		}
		return true
	})
}

// TestUnpackPartRuns runs UnpackPart on what a restore onto another
// number of ranks reads: every saved rank's grid under BLOCK, CYCLIC(1),
// CYCLIC(3) and B_BLOCK in each dimension of 1-D, 2-D and 3-D domains,
// intersected with every new rank's grid of a BLOCK or CYCLIC(3) over 3
// ranks in the same dimension, and with a window of the domain.
func TestUnpackPartRuns(t *testing.T) {
	const np = 4
	extents := [][]int{{29}, {13, 9}, {7, 6, 5}}
	for _, ext := range extents {
		whole := index.Grid{Dims: make([]index.RunSet, len(ext))}
		window := index.Grid{Dims: make([]index.RunSet, len(ext))}
		for k, e := range ext {
			whole.Dims[k] = index.NewRunSet(index.NewRun(0, e-1, 1))
			window.Dims[k] = index.NewRunSet(index.NewRun(1, e-2, 1))
		}
		for _, kind := range []string{"block", "cyclic1", "cyclic3", "bblock"} {
			for d := range ext {
				for r := 0; r < np; r++ {
					saved := whole
					saved.Dims = append([]index.RunSet(nil), whole.Dims...)
					saved.Dims[d] = owned(kind, ext[d], np, r)
					mines := []index.Grid{window}
					for _, newKind := range []string{"block", "cyclic3"} {
						for q := 0; q < 3; q++ {
							mine := whole
							mine.Dims = append([]index.RunSet(nil), whole.Dims...)
							mine.Dims[d] = owned(newKind, ext[d], 3, q)
							mines = append(mines, mine)
						}
					}
					for i, mine := range mines {
						if part := saved.Intersect(mine); !part.Empty() {
							checkUnpackPart(t, fmt.Sprintf("%dD %s dim %d rank %d, mine %d", len(ext), kind, d, r, i), part, saved, mine)
						}
					}
				}
			}
		}
	}
	// A part whose run's stride is a multiple of the enclosing run's.
	whole := index.Grid{Dims: []index.RunSet{{{Lo: 1, Hi: 19, Stride: 2}}, {{Lo: 0, Hi: 3, Stride: 1}}}}
	part := index.Grid{Dims: []index.RunSet{{{Lo: 3, Hi: 15, Stride: 4}}, {{Lo: 1, Hi: 2, Stride: 1}}}}
	checkUnpackPart(t, "stride multiple", part, whole, part)
}

// TestPackAllocsPerRun pins the steady-state allocation behaviour of
// the rect pack/apply paths with recycled buffers: a grid packed or
// applied on its own plans its rects (two allocations: the rects and
// their dimensions, whatever the element count — the property that keeps
// E3/E4 allocation counts flat in N); the whole owned set, a gather part
// and a planned self-copy allocate nothing.
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
		const planAllocs = 2 // g's rects and their dimensions
		buf := l.AppendPacked(nil, g)
		x := copyPlan(&l.layout, &l.layout, g, nil, nil)
		out := make([]float64, dom.Size())
		for _, tc := range []struct {
			name string
			max  float64
			f    func()
		}{
			{"AppendPacked", planAllocs, func() { buf = l.AppendPacked(buf[:0], g) }},
			{"UnpackWire", planAllocs, func() { l.UnpackWire(g, buf) }},
			{"AppendOwned", 0, func() { buf = l.AppendOwned(buf[:0]) }},
			{"ApplyOwned", 0, func() {
				if err := l.ApplyOwned(buf); err != nil {
					t.Fatal(err)
				}
			}},
			{"planned self-copy", 0, func() { x.copy(l.data, l.data) }},
			{"AppendPart", 0, func() { buf = a.AppendPart(ctx, buf[:0]) }},
			{"PlacePart", 0, func() {
				if err := a.PlacePart(ctx, out, 0, buf); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			tc.f() // warm: buffers grown, the dense layout built
			if n := testing.AllocsPerRun(100, tc.f); n > tc.max {
				t.Errorf("%s with recycled buffers: %v allocs/run for %d elements, want <= %v", tc.name, n, g.Count(), tc.max)
			}
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
