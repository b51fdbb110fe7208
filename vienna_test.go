package vienna

import (
	"testing"
)

// TestFacadeEndToEnd exercises the public API surface the README's quick
// start promises: machine, engine, declarations, DISTRIBUTE, queries,
// ghost exchange, one-sided access, and stats.
func TestFacadeEndToEnd(t *testing.T) {
	m := NewMachine(4)
	defer m.Close()
	e := NewEngine(m)
	err := m.Run(func(ctx *Ctx) error {
		r := m.ProcsDim("R", 2, 2)
		v := e.MustDeclare(ctx, Decl{
			Name: "V", Domain: Dim(16, 16), Dynamic: true,
			Range: Range{
				NewPattern(PElided(), PBlock()),
				NewPattern(PBlock(), PBlock()),
			},
			Init:  &DistSpec{Type: NewType(Elided(), Block())},
			Ghost: []int{1, 1},
		})
		w := e.MustDeclare(ctx, Decl{
			Name: "W", Domain: Dim(16, 16), Dynamic: true, ConnectTo: "V", Ghost: []int{1, 1},
		})
		v.FillFunc(ctx, func(p Point) float64 { return float64(p[0] + 100*p[1]) })
		ctx.Barrier()
		v.ExchangeAllGhosts(ctx)

		if !IDT(ctx, v, NewPattern(PElided(), PBlock())) {
			t.Error("IDT failed on initial distribution")
		}
		e.MustDistribute(ctx, []*Array{v}, DimsOf(Block(), Block()).To(r.Whole()))
		ctx.Barrier() // a remote Get reads the owner's storage: wait for its commit
		if got := v.Get(ctx, 7, 9); got != 7+900 {
			t.Errorf("V(7,9) = %v", got)
		}
		if !w.DistType(ctx.Rank()).Equal(NewType(Block(), Block())) {
			t.Error("secondary did not follow")
		}
		arm, err := Select(ctx, v, w).
			Case(func() error { return nil }, P(NewPattern(PBlock(), PBlock()))).
			Default(func() error { return nil }).
			Run()
		if err != nil || arm != 0 {
			t.Errorf("dcase arm %d err %v", arm, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().Snapshot().TotalBytes() == 0 {
		t.Fatal("no traffic recorded")
	}
}

// TestFacadeCostModel runs the quick-start flow under a cost model and a
// TCP transport to confirm the exported constructors compose.
func TestFacadeCostModelAndTCP(t *testing.T) {
	cm := NewCostModel(2, 1e-4, 1e-9)
	m := NewMachine(2, WithCostModel(cm))
	e := NewEngine(m)
	if err := m.Run(func(ctx *Ctx) error {
		a := e.MustDeclare(ctx, Decl{Name: "A", Domain: Dim(64), Dynamic: true,
			Init: &DistSpec{Type: NewType(Block())}})
		e.MustDistribute(ctx, []*Array{a}, DimsOf(Cyclic(2)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if cm.Makespan() == 0 {
		t.Fatal("cost model saw no traffic")
	}
	m.Close()

	tcp, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMachine(2, WithTransport(tcp))
	defer m2.Close()
	e2 := NewEngine(m2)
	if err := m2.Run(func(ctx *Ctx) error {
		a := e2.MustDeclare(ctx, Decl{Name: "A", Domain: Dim(32), Dynamic: true,
			Init: &DistSpec{Type: NewType(Block())}})
		a.Fill(ctx, 3)
		ctx.Barrier()
		e2.MustDistribute(ctx, []*Array{a}, DimsOf(Cyclic(1)))
		ctx.Barrier() // a remote Get reads the owner's storage: wait for its commit
		if a.Get(ctx, 17) != 3 {
			t.Error("value lost over TCP redistribution")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeAlignment checks exported alignment constructors.
func TestFacadeAlignment(t *testing.T) {
	m := NewMachine(4)
	defer m.Close()
	e := NewEngine(m)
	if err := m.Run(func(ctx *Ctx) error {
		c := e.MustDeclare(ctx, Decl{Name: "C", Domain: Dim(8, 8),
			Static: &DistSpec{Type: NewType(Block(), Elided())}})
		d := e.MustDeclare(ctx, Decl{Name: "D", Domain: Dim(8, 8),
			StaticAlign: &Alignment{Maps: []AxisMap{Axis(1), Axis(0)}}, AlignWith: "C"})
		if ctx.Rank() == 0 {
			for _, p := range []Point{{1, 5}, {8, 2}} {
				if d.Dist().Owner(p) != c.Dist().Owner(Point{p[1], p[0]}) {
					t.Errorf("alignment owner mismatch at %v", p)
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
