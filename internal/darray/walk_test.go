package darray

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
)

// walkCase declares one array whose owned storage the walk tests cover.
type walkCase struct {
	name string
	make func(ctx *machine.Ctx) *Array
}

// walkCases covers every storage layout an array can have on np ranks:
// BLOCK beside an elided dimension (empty blocks once np exceeds the
// extent), CYCLIC(3), B_BLOCK with an empty block, a replicated array and
// a ghosted layout.
func walkCases(np int) []walkCase {
	line := func(ctx *machine.Ctx) dist.Target { return ctx.Machine().ProcsDim("P", np).Whole() }
	mk := func(name string, dom index.Domain, typ dist.Type, target func(*machine.Ctx) dist.Target, opts ...Option) walkCase {
		return walkCase{name, func(ctx *machine.Ctx) *Array {
			return New(ctx, name, dom, dist.MustNew(typ, dom, target(ctx)), opts...)
		}}
	}
	bounds := make([]int, np) // B_BLOCK over 9 with rank 0's block empty
	for i := range bounds {
		bounds[i] = 9 * i / max(np-1, 1)
	}
	bounds[np-1] = 9
	return []walkCase{
		mk("block", index.Dim(5, 3), dist.NewType(dist.BlockDim(), dist.ElidedDim()), line),
		mk("cyclic3", index.Dim(11, 4), dist.NewType(dist.CyclicDim(3), dist.ElidedDim()), line),
		mk("bblock", index.Dim(3, 9), dist.NewType(dist.ElidedDim(), dist.BBlockDim(bounds...)), line),
		mk("replicated", index.Dim(6, 2), dist.NewType(dist.BlockDim(), dist.ElidedDim()),
			func(ctx *machine.Ctx) dist.Target { return ctx.Machine().ProcsDim("G", 1, np).Whole() }),
		mk("ghosted", index.Dim(12, 3), dist.NewType(dist.BlockDim(), dist.ElidedDim()), line, WithGhost(2, 1)),
	}
}

// orderVal is a value for which the order of a sum matters: 1e16 + 1
// rounds back to 1e16.
func orderVal(p index.Point) float64 {
	return [...]float64{1e16, 1, -1e16, 1, 0.5}[(3*p[0]+p[1])%5]
}

// TestRunWalk: on every layout, at P = 1…6, the walk visits exactly
// ForEachOwned's points in the same order, each run's slice aliases the
// storage Offset gives, FillFunc writes what per-point SetAt writes, and
// ReduceSum adds in ForEachOwned's order, bit for bit.
func TestRunWalk(t *testing.T) {
	for np := 1; np <= 6; np++ {
		for _, c := range walkCases(np) {
			run(t, np, func(ctx *machine.Ctx) error {
				a := c.make(ctx)
				l := a.Local(ctx)
				var want []index.Point
				l.ForEachOwned(func(p index.Point, v *float64) {
					if v != &l.data[l.Offset(p)] {
						t.Errorf("%s P=%d rank %d: ForEachOwned pointer of %v is not its storage", c.name, np, ctx.Rank(), p)
					}
					want = append(want, slices.Clone(p))
				})
				var got []index.Point
				l.ForEachRun(func(p index.Point, stride int, run []float64) {
					if len(run) == 0 {
						t.Errorf("%s P=%d rank %d: empty run at %v", c.name, np, ctx.Rank(), p)
					}
					q := slices.Clone(p)
					for j := range run {
						if &run[j] != &l.data[l.Offset(q)] {
							t.Errorf("%s P=%d rank %d: run element %v is not its storage", c.name, np, ctx.Rank(), q)
						}
						got = append(got, slices.Clone(q))
						q[0] += stride
					}
				})
				if !slices.EqualFunc(got, want, slices.Equal[index.Point]) {
					t.Errorf("%s P=%d rank %d: walk visits %v, ForEachOwned %v", c.name, np, ctx.Rank(), got, want)
				}
				if len(want) != l.Count() {
					t.Errorf("%s P=%d rank %d: %d points, %d owned", c.name, np, ctx.Rank(), len(want), l.Count())
				}

				l.grid.ForEach(func(p index.Point) bool {
					l.SetAt(p, orderVal(p))
					return true
				})
				ref := slices.Clone(l.data)
				clear(l.data)
				a.FillFunc(ctx, orderVal)
				if !slices.Equal(l.data, ref) {
					t.Errorf("%s P=%d rank %d: FillFunc storage %v, SetAt reference %v", c.name, np, ctx.Rank(), l.data, ref)
				}
				local := 0.0
				if a.Dist(ctx.Rank()).IsPrimaryRank(ctx.Rank()) {
					l.ForEachOwned(func(_ index.Point, v *float64) { local += *v })
				}
				seq, err := ctx.Comm().AllreduceF64([]float64{local}, msg.SumF64)
				if err != nil {
					return err
				}
				sum, err := a.ReduceSum(ctx)
				if err != nil {
					return err
				}
				if math.Float64bits(sum) != math.Float64bits(seq[0]) {
					t.Errorf("%s P=%d rank %d: ReduceSum %v, sequential sum %v", c.name, np, ctx.Rank(), sum, seq[0])
				}
				return nil
			})
		}
	}
}

// TestRunWalkNested: a walk started inside a walk of the same storage
// visits every point and leaves the outer walk's point intact.
func TestRunWalkNested(t *testing.T) {
	run(t, 1, func(ctx *machine.Ctx) error {
		a := walkCases(1)[1].make(ctx) // CYCLIC(3): several runs
		l := a.Local(ctx)
		runs := 0
		l.ForEachRun(func(p index.Point, _ int, _ []float64) {
			outer := slices.Clone(p)
			n := 0
			l.ForEachOwned(func(index.Point, *float64) { n++ })
			if n != l.Count() || !slices.Equal(p, outer) {
				t.Errorf("inner walk: %d points of %d, outer point %v now %v", n, l.Count(), outer, p)
			}
			runs++
		})
		if runs == 0 {
			t.Error("no runs walked")
		}
		return nil
	})
}

// TestFillReduceAllocs: FillFunc, Fill and the walk allocate nothing on
// any of TestRunWalk's layouts.
func TestFillReduceAllocs(t *testing.T) {
	run(t, 1, func(ctx *machine.Ctx) error {
		for _, c := range walkCases(1) {
			a := c.make(ctx)
			l := a.Local(ctx)
			n := 0
			for name, f := range map[string]func(){
				"FillFunc": func() { a.FillFunc(ctx, orderVal) },
				"Fill":     func() { a.Fill(ctx, 1) },
				"walk":     func() { l.ForEachRun(func(_ index.Point, _ int, run []float64) { n += len(run) }) },
			} {
				if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
					t.Errorf("%s: %s allocates %v a call, want 0", c.name, name, allocs)
				}
			}
		}
		return nil
	})
}
