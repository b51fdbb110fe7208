package core

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/query"
)

// run executes an SPMD body over a fresh machine + engine.
func run(t *testing.T, np int, body func(ctx *machine.Ctx, e *Engine) error, opts ...machine.Option) *machine.Machine {
	t.Helper()
	m := machine.New(np, opts...)
	t.Cleanup(func() { m.Close() })
	e := NewEngine(m)
	if err := m.Run(func(ctx *machine.Ctx) error { return body(ctx, e) }); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPaperExample1 reproduces the paper's Example 1:
//
//	PARAMETER (M=2)
//	PROCESSORS R(1:M,1:M)
//	REAL C(10,10,10) DIST(BLOCK,BLOCK,:) TO R
//	REAL D(10,10,10) ALIGN D(I,J,K) WITH C(J,I,K)
//
// "δC(i,j,k) = {R(⌈i/5⌉,⌈j/5⌉)} for all k" and "the resulting alignment
// function maps each index triplet (i,j,k) in I^D to (j,i,k) in I^C".
func TestPaperExample1(t *testing.T) {
	run(t, 4, func(ctx *machine.Ctx, e *Engine) error {
		r := e.Machine().Procs("R", [2]int{1, 2}, [2]int{1, 2})
		c := e.MustDeclare(ctx, Decl{
			Name: "C", Domain: index.Dim(10, 10, 10),
			Static: &DistSpec{
				Type:   dist.NewType(dist.BlockDim(), dist.BlockDim(), dist.ElidedDim()),
				Target: r.Whole(),
			},
		})
		d := e.MustDeclare(ctx, Decl{
			Name: "D", Domain: index.Dim(10, 10, 10),
			StaticAlign: &dist.Alignment{Maps: []dist.AxisMap{dist.Axis(1), dist.Axis(0), dist.Axis(2)}},
			AlignWith:   "C",
		})
		if ctx.Rank() != 0 {
			return nil
		}
		for _, tc := range []struct{ i, j, k int }{{1, 1, 1}, {6, 3, 5}, {3, 6, 10}, {10, 10, 2}} {
			p := index.Point{tc.i, tc.j, tc.k}
			// δC(i,j,k) = R(ceil(i/5), ceil(j/5)) as a rank
			wantCoords := []int{(tc.i-1)/5 + 1, (tc.j-1)/5 + 1}
			if got, want := c.DistOf(ctx.Rank()).Owner(p), r.RankOf(wantCoords); got != want {
				t.Errorf("δC%v = %d want %d", p, got, want)
			}
			// δD(i,j,k) = δC(j,i,k)
			if got, want := d.DistOf(ctx.Rank()).Owner(p), c.DistOf(ctx.Rank()).Owner(index.Point{tc.j, tc.i, tc.k}); got != want {
				t.Errorf("δD%v = %d want δC(transposed) = %d", p, got, want)
			}
		}
		if d.Dynamic() || c.Dynamic() {
			t.Error("Example 1 arrays are statically distributed")
		}
		return nil
	})
}

// TestPaperExample2 reproduces the declarations of Example 2 and checks
// the stated consequence: "C(B4) ⊇ {B4, A1, A2}; the connections ensure
// that the distribution type of A1 and A2 will always be the same as that
// of B4."
func TestPaperExample2(t *testing.T) {
	const m, n = 8, 12
	run(t, 4, func(ctx *machine.Ctx, e *Engine) error {
		r2 := e.Machine().Procs("R", [2]int{1, 2}, [2]int{1, 2})
		b1 := e.MustDeclare(ctx, Decl{Name: "B1", Domain: index.Dim(m), Dynamic: true})
		b2 := e.MustDeclare(ctx, Decl{Name: "B2", Domain: index.Dim(n), Dynamic: true,
			Init: &DistSpec{Type: dist.NewType(dist.BlockDim())}})
		rng := dist.Range{
			dist.NewPattern(dist.PBlock(), dist.PBlock()),
			dist.NewPattern(dist.PAny(), dist.PCyclic(1)),
		}
		b3 := e.MustDeclare(ctx, Decl{Name: "B3", Domain: index.Dim(n, n), Dynamic: true,
			Range: rng, Init: &DistSpec{Type: dist.NewType(dist.BlockDim(), dist.CyclicDim(1)), Target: r2.Whole()}})
		b4 := e.MustDeclare(ctx, Decl{Name: "B4", Domain: index.Dim(n, n), Dynamic: true,
			Range: rng, Init: &DistSpec{Type: dist.NewType(dist.BlockDim(), dist.CyclicDim(1)), Target: r2.Whole()}})
		a1 := e.MustDeclare(ctx, Decl{Name: "A1", Domain: index.Dim(n, n), Dynamic: true,
			ConnectTo: "B4"})
		a2 := e.MustDeclare(ctx, Decl{Name: "A2", Domain: index.Dim(n, n), Dynamic: true,
			ConnectTo: "B4", Align: &dist.Alignment{Maps: []dist.AxisMap{dist.Axis(0), dist.Axis(1)}}})

		if ctx.Rank() == 0 {
			if b1.Distributed(ctx.Rank()) {
				t.Error("B1 has no initial distribution")
			}
			if !b2.Distributed(ctx.Rank()) || !b2.DistType(ctx.Rank()).Equal(dist.NewType(dist.BlockDim())) {
				t.Error("B2 initial distribution wrong")
			}
			members := b4.ClassMembers()
			if len(members) != 3 || members[0] != b4 || members[1] != a1 || members[2] != a2 {
				t.Errorf("C(B4) = %v", members)
			}
			if len(b3.ClassMembers()) != 1 {
				t.Error("B3 class should be {B3}")
			}
			if !a1.DistType(ctx.Rank()).Equal(b4.DistType(ctx.Rank())) {
				t.Errorf("A1 type %v != B4 type %v", a1.DistType(ctx.Rank()), b4.DistType(ctx.Rank()))
			}
			if a1.connKind != ConnExtract || a2.connKind != ConnAlign {
				t.Error("connection kinds wrong")
			}
			if a1.class.primary != b4 {
				t.Error("primary wrong")
			}
		}
		ctx.Barrier()
		// Redistributing B4 moves A1, A2 with it and keeps types equal.
		e.MustDistribute(ctx, []*Array{b4}, DimsOf(dist.BlockDim(), dist.BlockDim()).To(r2.Whole()))
		if ctx.Rank() == 0 {
			if !a1.DistType(ctx.Rank()).Equal(b4.DistType(ctx.Rank())) {
				t.Errorf("after DISTRIBUTE, A1 %v != B4 %v", a1.DistType(ctx.Rank()), b4.DistType(ctx.Rank()))
			}
			// identity alignment over BLOCK derives a general block with
			// identical segments — owner equality is the real invariant
			for _, p := range []index.Point{{1, 1}, {5, 9}, {12, 12}} {
				if a2.DistOf(ctx.Rank()).Owner(p) != b4.DistOf(ctx.Rank()).Owner(p) {
					t.Errorf("A2 owner%v diverged from B4", p)
				}
			}
		}
		_ = b1
		return nil
	})
}

// TestPaperExample3 executes the distribute statements of Example 3:
//
//	DISTRIBUTE B1 :: (BLOCK)
//	K = expr
//	DISTRIBUTE B1,B2 :: (CYCLIC(K))
//	DISTRIBUTE B3 :: (BLOCK, CYCLIC)
//	DISTRIBUTE B4 :: (=B1, CYCLIC(3))
//
// After the last statement, "B4 and the associated secondary arrays A1
// and A2 are distributed as (CYCLIC(k'), CYCLIC(3))".
func TestPaperExample3(t *testing.T) {
	const m, n = 8, 12
	run(t, 4, func(ctx *machine.Ctx, e *Engine) error {
		r2 := e.Machine().Procs("R2", [2]int{1, 2}, [2]int{1, 2})
		b1 := e.MustDeclare(ctx, Decl{Name: "B1", Domain: index.Dim(m), Dynamic: true})
		b2 := e.MustDeclare(ctx, Decl{Name: "B2", Domain: index.Dim(n), Dynamic: true,
			Init: &DistSpec{Type: dist.NewType(dist.BlockDim())}})
		b4 := e.MustDeclare(ctx, Decl{Name: "B4", Domain: index.Dim(n, n), Dynamic: true,
			Init: &DistSpec{Type: dist.NewType(dist.BlockDim(), dist.CyclicDim(1)), Target: r2.Whole()}})
		a1 := e.MustDeclare(ctx, Decl{Name: "A1", Domain: index.Dim(n, n), Dynamic: true, ConnectTo: "B4"})

		e.MustDistribute(ctx, []*Array{b1}, DimsOf(dist.BlockDim()))
		if ctx.Rank() == 0 && !b1.DistType(ctx.Rank()).Equal(dist.NewType(dist.BlockDim())) {
			t.Errorf("B1 = %v", b1.DistType(ctx.Rank()))
		}
		ctx.Barrier()

		k := 2 // K = expr
		e.MustDistribute(ctx, []*Array{b1, b2}, DimsOf(dist.CyclicDim(k)))
		if ctx.Rank() == 0 {
			if !b1.DistType(ctx.Rank()).Equal(dist.NewType(dist.CyclicDim(2))) || !b2.DistType(ctx.Rank()).Equal(dist.NewType(dist.CyclicDim(2))) {
				t.Errorf("B1/B2 after CYCLIC(K): %v %v", b1.DistType(ctx.Rank()), b2.DistType(ctx.Rank()))
			}
		}
		ctx.Barrier()

		// DISTRIBUTE B4 :: (=B1, CYCLIC(3)) TO R2
		e.MustDistribute(ctx, []*Array{b4},
			Dims(From("B1"), Lit(dist.CyclicDim(3))).To(r2.Whole()))
		if ctx.Rank() == 0 {
			want := dist.NewType(dist.CyclicDim(2), dist.CyclicDim(3))
			if !b4.DistType(ctx.Rank()).Equal(want) {
				t.Errorf("B4 = %v want %v", b4.DistType(ctx.Rank()), want)
			}
			if !a1.DistType(ctx.Rank()).Equal(want) {
				t.Errorf("A1 = %v want %v (follows its primary)", a1.DistType(ctx.Rank()), want)
			}
		}
		return nil
	})
}

func TestRangeViolation(t *testing.T) {
	run(t, 2, func(ctx *machine.Ctx, e *Engine) error {
		rng := dist.Range{dist.NewPattern(dist.PBlock())}
		b := e.MustDeclare(ctx, Decl{Name: "B", Domain: index.Dim(8), Dynamic: true,
			Range: rng, Init: &DistSpec{Type: dist.NewType(dist.BlockDim())}})
		err := e.Distribute(ctx, []*Array{b}, DimsOf(dist.CyclicDim(1)))
		if err == nil || !strings.Contains(err.Error(), "violates") {
			t.Errorf("range violation not caught: %v", err)
		}
		// the array keeps its old distribution
		if !b.DistType(ctx.Rank()).Equal(dist.NewType(dist.BlockDim())) {
			t.Error("failed DISTRIBUTE must not change the distribution")
		}
		// initial distribution violating the range is caught at declaration
		_, err = e.Declare(ctx, Decl{Name: "BAD", Domain: index.Dim(8), Dynamic: true,
			Range: rng, Init: &DistSpec{Type: dist.NewType(dist.CyclicDim(4))}})
		if err == nil {
			t.Error("declaration with out-of-range initial distribution accepted")
		}
		return nil
	})
}

func TestDistributeOnSecondaryOrStaticRejected(t *testing.T) {
	run(t, 2, func(ctx *machine.Ctx, e *Engine) error {
		s := e.MustDeclare(ctx, Decl{Name: "S", Domain: index.Dim(8),
			Static: &DistSpec{Type: dist.NewType(dist.BlockDim())}})
		e.MustDeclare(ctx, Decl{Name: "B", Domain: index.Dim(8), Dynamic: true,
			Init: &DistSpec{Type: dist.NewType(dist.BlockDim())}})
		a := e.MustDeclare(ctx, Decl{Name: "A", Domain: index.Dim(8), Dynamic: true, ConnectTo: "B"})
		if err := e.Distribute(ctx, []*Array{s}, DimsOf(dist.CyclicDim(1))); err == nil {
			t.Error("DISTRIBUTE on static array accepted")
		}
		if err := e.Distribute(ctx, []*Array{a}, DimsOf(dist.CyclicDim(1))); err == nil {
			t.Error("DISTRIBUTE on secondary array accepted")
		}
		return nil
	})
}

func TestNoTransferAttribute(t *testing.T) {
	run(t, 2, func(ctx *machine.Ctx, e *Engine) error {
		b := e.MustDeclare(ctx, Decl{Name: "B", Domain: index.Dim(8), Dynamic: true,
			Init: &DistSpec{Type: dist.NewType(dist.BlockDim())}})
		a := e.MustDeclare(ctx, Decl{Name: "A", Domain: index.Dim(8), Dynamic: true, ConnectTo: "B"})
		b.FillFunc(ctx, func(p index.Point) float64 { return float64(p[0]) })
		a.FillFunc(ctx, func(p index.Point) float64 { return float64(p[0] * 10) })
		ctx.Barrier()
		// NOTRANSFER(A): B's data moves, A's does not.
		e.MustDistribute(ctx, []*Array{b}, DimsOf(dist.CyclicDim(1)), NoTransfer(a))
		ctx.Barrier() // a remote Get reads the owner's storage: wait for its commit
		if ctx.Rank() == 0 {
			if got := b.Get(ctx, 7); got != 7 {
				t.Errorf("B(7) = %v, data should have moved", got)
			}
		}
		ctx.Barrier()
		// A's type still follows B
		if !a.DistType(ctx.Rank()).Equal(b.DistType(ctx.Rank())) {
			t.Error("NOTRANSFER must still update the access function / type")
		}
		// but values did not travel: a kept only elements it already had
		if ctx.Rank() == 0 {
			// rank 0 owned 1-4 before, owns odd indices now: 1,3 kept; 5,7 zeroed
			l := a.Local(ctx)
			if l.At(index.Point{1}) != 10 || l.At(index.Point{3}) != 30 {
				t.Error("NOTRANSFER lost in-place values")
			}
			if l.At(index.Point{5}) != 0 || l.At(index.Point{7}) != 0 {
				t.Error("NOTRANSFER moved values it should not have")
			}
		}
		// NOTRANSFER of a non-secondary is rejected
		if err := e.Distribute(ctx, []*Array{b}, DimsOf(dist.BlockDim()), NoTransfer(b)); err == nil {
			t.Error("NOTRANSFER of the primary itself accepted")
		}
		return nil
	})
}

func TestDistributeAlignForm(t *testing.T) {
	run(t, 4, func(ctx *machine.Ctx, e *Engine) error {
		c := e.MustDeclare(ctx, Decl{Name: "C", Domain: index.Dim(8, 8),
			Static: &DistSpec{Type: dist.NewType(dist.BlockDim(), dist.ElidedDim())}})
		b := e.MustDeclare(ctx, Decl{Name: "B", Domain: index.Dim(8, 8), Dynamic: true,
			Init: &DistSpec{Type: dist.NewType(dist.ElidedDim(), dist.BlockDim())}})
		// DISTRIBUTE B :: ALIGN B(I,J) WITH C(J,I)
		e.MustDistribute(ctx, []*Array{b}, AlignWith("C", dist.Transpose2D()))
		if ctx.Rank() == 0 {
			for _, p := range []index.Point{{1, 5}, {8, 1}, {4, 4}} {
				if b.DistOf(ctx.Rank()).Owner(p) != c.DistOf(ctx.Rank()).Owner(index.Point{p[1], p[0]}) {
					t.Errorf("aligned owner%v wrong", p)
				}
			}
		}
		return nil
	})
}

func TestAccessBeforeFirstDistributeFails(t *testing.T) {
	m := machine.New(2)
	defer m.Close()
	e := NewEngine(m)
	err := m.Run(func(ctx *machine.Ctx) error {
		b := e.MustDeclare(ctx, Decl{Name: "B1", Domain: index.Dim(8), Dynamic: true})
		b.Get(ctx, 1) // must panic: no initial distribution, no DISTRIBUTE yet
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "before association") {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateDeclarationRejected(t *testing.T) {
	run(t, 2, func(ctx *machine.Ctx, e *Engine) error {
		e.MustDeclare(ctx, Decl{Name: "X", Domain: index.Dim(4), Dynamic: true})
		ctx.Barrier()
		_, err := e.Declare(ctx, Decl{Name: "X", Domain: index.Dim(4), Dynamic: true})
		if err == nil {
			t.Error("duplicate declaration accepted")
		}
		return nil
	})
}

func TestConnectToNonPrimaryRejected(t *testing.T) {
	run(t, 2, func(ctx *machine.Ctx, e *Engine) error {
		e.MustDeclare(ctx, Decl{Name: "B", Domain: index.Dim(8), Dynamic: true,
			Init: &DistSpec{Type: dist.NewType(dist.BlockDim())}})
		e.MustDeclare(ctx, Decl{Name: "A", Domain: index.Dim(8), Dynamic: true, ConnectTo: "B"})
		ctx.Barrier()
		// connecting to a secondary is forbidden (classes have one primary)
		_, err := e.Declare(ctx, Decl{Name: "A2", Domain: index.Dim(8), Dynamic: true, ConnectTo: "A"})
		if err == nil {
			t.Error("CONNECT to secondary accepted")
		}
		// connecting to a static array is forbidden
		e.MustDeclare(ctx, Decl{Name: "S", Domain: index.Dim(8),
			Static: &DistSpec{Type: dist.NewType(dist.BlockDim())}})
		ctx.Barrier()
		_, err = e.Declare(ctx, Decl{Name: "A3", Domain: index.Dim(8), Dynamic: true, ConnectTo: "S"})
		if err == nil {
			t.Error("CONNECT to static array accepted")
		}
		return nil
	})
}

func TestCallWithRestores(t *testing.T) {
	run(t, 2, func(ctx *machine.Ctx, e *Engine) error {
		b := e.MustDeclare(ctx, Decl{Name: "B", Domain: index.Dim(8), Dynamic: true,
			Init: &DistSpec{Type: dist.NewType(dist.BlockDim())}})
		b.FillFunc(ctx, func(p index.Point) float64 { return float64(p[0]) })
		ctx.Barrier()
		// HPF-style: restore on return
		err := b.CallWith(ctx, DistSpec{Type: dist.NewType(dist.CyclicDim(1))}, true, func() error {
			if !b.DistType(ctx.Rank()).Equal(dist.NewType(dist.CyclicDim(1))) {
				t.Error("callee does not see its declared distribution")
			}
			return nil
		})
		if err != nil {
			return err
		}
		if !b.DistType(ctx.Rank()).Equal(dist.NewType(dist.BlockDim())) {
			t.Error("restore=true did not restore the caller's distribution")
		}
		ctx.Barrier()
		// Vienna Fortran style: the new distribution returns to the caller
		err = b.CallWith(ctx, DistSpec{Type: dist.NewType(dist.CyclicDim(2))}, false, func() error { return nil })
		if err != nil {
			return err
		}
		if !b.DistType(ctx.Rank()).Equal(dist.NewType(dist.CyclicDim(2))) {
			t.Error("restore=false should keep the callee's distribution")
		}
		// values preserved throughout
		if ctx.Rank() == 0 && b.Get(ctx, 5) != 5 {
			t.Error("values lost across CallWith")
		}
		return nil
	})
}

func TestCoreArraysWorkWithDCase(t *testing.T) {
	run(t, 2, func(ctx *machine.Ctx, e *Engine) error {
		v := e.MustDeclare(ctx, Decl{Name: "V", Domain: index.Dim(8, 8), Dynamic: true,
			Init: &DistSpec{Type: dist.NewType(dist.ElidedDim(), dist.BlockDim())}})
		picked := ""
		_, err := query.Select(ctx.Rank(), v).
			Case(func() error { picked = "columns"; return nil },
				query.P(dist.NewPattern(dist.PElided(), dist.PBlock()))).
			Case(func() error { picked = "rows"; return nil },
				query.P(dist.NewPattern(dist.PBlock(), dist.PElided()))).
			Default(func() error { picked = "other"; return nil }).
			Run()
		if err != nil {
			return err
		}
		if picked != "columns" {
			t.Errorf("picked %q", picked)
		}
		if !query.IDT(ctx.Rank(), v, dist.NewPattern(dist.PAny(), dist.PBlock())) {
			t.Error("IDT on core array failed")
		}
		return nil
	})
}

func TestEngineLookupAndArrays(t *testing.T) {
	run(t, 2, func(ctx *machine.Ctx, e *Engine) error {
		e.MustDeclare(ctx, Decl{Name: "P1", Domain: index.Dim(4), Dynamic: true})
		e.MustDeclare(ctx, Decl{Name: "P2", Domain: index.Dim(4), Dynamic: true})
		ctx.Barrier()
		if ctx.Rank() == 0 {
			if _, ok := e.Lookup("P1"); !ok {
				t.Error("lookup failed")
			}
			if _, ok := e.Lookup("NOPE"); ok {
				t.Error("phantom array")
			}
			names := []string{}
			for _, a := range e.Arrays() {
				names = append(names, a.Name())
			}
			if len(names) != 2 || names[0] != "P1" || names[1] != "P2" {
				t.Errorf("arrays = %v", names)
			}
			if e.m.NP() != 2 {
				t.Error("NP")
			}
		}
		return nil
	})
}

// TestMigrationBetweenProcessorSections exercises "a distribution
// expression, possibly associated with a processor section" (§2.4): the
// array migrates between two disjoint halves of the machine.
func TestMigrationBetweenProcessorSections(t *testing.T) {
	run(t, 4, func(ctx *machine.Ctx, e *Engine) error {
		l := e.Machine().ProcsDim("L", 4)
		left := l.Section([3]int{1, 2, 1})  // ranks 0,1
		right := l.Section([3]int{3, 4, 1}) // ranks 2,3
		b := e.MustDeclare(ctx, Decl{Name: "B", Domain: index.Dim(8), Dynamic: true,
			Init: &DistSpec{Type: dist.NewType(dist.BlockDim()), Target: left}})
		b.FillFunc(ctx, func(p index.Point) float64 { return float64(p[0] * 3) })
		ctx.Barrier()
		// only the left half owns data initially
		if ctx.Rank() <= 1 && b.Local(ctx).Count() != 4 {
			t.Errorf("rank %d should own 4 elements", ctx.Rank())
		}
		if ctx.Rank() >= 2 && b.Local(ctx).Count() != 0 {
			t.Errorf("rank %d should own nothing", ctx.Rank())
		}
		ctx.Barrier()
		// DISTRIBUTE B :: (CYCLIC) TO L(3:4)
		e.MustDistribute(ctx, []*Array{b}, DimsOf(dist.CyclicDim(1)).To(right))
		if ctx.Rank() >= 2 {
			bad := 0
			b.Local(ctx).ForEachOwned(func(p index.Point, v *float64) {
				if *v != float64(p[0]*3) {
					bad++
				}
			})
			if bad != 0 || b.Local(ctx).Count() != 4 {
				t.Errorf("rank %d: migration corrupted data (%d bad, %d owned)", ctx.Rank(), bad, b.Local(ctx).Count())
			}
		} else if b.Local(ctx).Count() != 0 {
			t.Errorf("rank %d should have handed everything off", ctx.Rank())
		}
		// gather still assembles the full array
		got, err := b.GatherTo(ctx, 0)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			for i := 1; i <= 8; i++ {
				if got[i-1] != float64(i*3) {
					t.Errorf("gathered[%d] = %v", i, got[i-1])
				}
			}
		}
		return nil
	})
}

// TestReplicatedTargetSectionOnDistribute moves a 1-D array onto a 2-D
// section, replicating across the unused dimension, then back.
func TestReplicatedTargetSectionOnDistribute(t *testing.T) {
	run(t, 4, func(ctx *machine.Ctx, e *Engine) error {
		g := e.Machine().ProcsDim("G", 2, 2)
		b := e.MustDeclare(ctx, Decl{Name: "B", Domain: index.Dim(6), Dynamic: true,
			Init: &DistSpec{Type: dist.NewType(dist.BlockDim())}})
		b.FillFunc(ctx, func(p index.Point) float64 { return float64(p[0]) })
		ctx.Barrier()
		e.MustDistribute(ctx, []*Array{b}, DimsOf(dist.BlockDim()).To(g.Whole()))
		// every rank is now a replica owner of half the array
		if c := b.Local(ctx).Count(); c != 3 {
			t.Errorf("rank %d owns %d, want 3", ctx.Rank(), c)
		}
		bad := 0
		b.Local(ctx).ForEachOwned(func(p index.Point, v *float64) {
			if *v != float64(p[0]) {
				bad++
			}
		})
		if bad != 0 {
			t.Errorf("rank %d: replicas missing data", ctx.Rank())
		}
		// and back to the default 1-D view
		e.MustDistribute(ctx, []*Array{b}, DimsOf(dist.CyclicDim(1)))
		if s, err := b.DArray().ReduceSum(ctx); err != nil {
			return err
		} else if s != 21 {
			t.Errorf("sum = %v", s)
		}
		return nil
	})
}

// TestConnectDoesNotCrossScopes checks §2.3 rule 5: "The connect relation
// does not extend across procedure boundaries."  Engines model procedure
// scopes; connecting to an array declared in a different scope fails.
func TestConnectDoesNotCrossScopes(t *testing.T) {
	m := machine.New(2)
	defer m.Close()
	outer := NewEngine(m)
	inner := NewEngine(m)
	if err := m.Run(func(ctx *machine.Ctx) error {
		outer.MustDeclare(ctx, Decl{Name: "B", Domain: index.Dim(8), Dynamic: true,
			Init: &DistSpec{Type: dist.NewType(dist.BlockDim())}})
		ctx.Barrier()
		_, err := inner.Declare(ctx, Decl{Name: "A", Domain: index.Dim(8), Dynamic: true, ConnectTo: "B"})
		if err == nil || !strings.Contains(err.Error(), "unknown array") {
			t.Errorf("cross-scope CONNECT accepted: %v", err)
		}
		// the same name may be redeclared independently in the new scope
		if _, err := inner.Declare(ctx, Decl{Name: "B", Domain: index.Dim(4), Dynamic: true,
			Init: &DistSpec{Type: dist.NewType(dist.CyclicDim(1))}}); err != nil {
			t.Errorf("independent scope declaration failed: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSBlockDistribute uses S_BLOCK through the full DISTRIBUTE path.
func TestSBlockDistribute(t *testing.T) {
	run(t, 3, func(ctx *machine.Ctx, e *Engine) error {
		b := e.MustDeclare(ctx, Decl{Name: "B", Domain: index.Dim(12), Dynamic: true,
			Init: &DistSpec{Type: dist.NewType(dist.BlockDim())}})
		b.FillFunc(ctx, func(p index.Point) float64 { return float64(p[0]) })
		ctx.Barrier()
		e.MustDistribute(ctx, []*Array{b}, DimsOf(dist.SBlockDim(2, 7, 3)))
		counts := []int{2, 7, 3}
		if got := b.Local(ctx).Count(); got != counts[ctx.Rank()] {
			t.Errorf("rank %d owns %d want %d", ctx.Rank(), got, counts[ctx.Rank()])
		}
		bad := 0
		b.Local(ctx).ForEachOwned(func(p index.Point, v *float64) {
			if *v != float64(p[0]) {
				bad++
			}
		})
		if bad != 0 {
			t.Errorf("S_BLOCK redistribution corrupted %d values", bad)
		}
		// IDT sees the irregular kind
		if !query.IDT(ctx.Rank(), b, dist.NewPattern(dist.PSBlock())) {
			t.Error("IDT(S_BLOCK(*)) failed")
		}
		return nil
	})
}
