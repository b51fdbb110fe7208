package core

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/trace"
)

// TestDistributeWarmAllocs: a warm DISTRIBUTE statement on an untraced
// run allocates only what evaluating its expression and the array's move
// need — no span name for a trace that records nothing.
func TestDistributeWarmAllocs(t *testing.T) {
	const np, runs = 4, 50
	var perRank float64
	run(t, np, func(ctx *machine.Ctx, e *Engine) error {
		v := e.MustDeclare(ctx, Decl{
			Name: "V", Domain: index.Dim(64, 64), Dynamic: true,
			Init: &DistSpec{Type: dist.NewType(dist.ElidedDim(), dist.BlockDim())},
		})
		rows := DimsOf(dist.BlockDim(), dist.ElidedDim())
		cols := DimsOf(dist.ElidedDim(), dist.BlockDim())
		var failed error
		pair := func() {
			for _, x := range []Expr{rows, cols} {
				if err := e.Distribute(ctx, []*Array{v}, x); err != nil && failed == nil {
					failed = err
				}
			}
		}
		pair() // builds schedules, plans, the window; parks both Locals
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			perRank = testing.AllocsPerRun(runs, pair) / (2 * np)
		} else {
			for i := 0; i < runs+1; i++ { // AllocsPerRun adds one warm-up call
				pair()
			}
		}
		return failed
	})
	// Measured: 12.9-13.0 (13.9-14.0 while the statement's span name was
	// concatenated on untraced runs too); the bound sits between the two.
	if perRank > 13.5 {
		t.Errorf("warm DISTRIBUTE statement: %.2f allocs per rank, want <= 13.5", perRank)
	}
}

// TestDistributeBarrierFree counts the Comm.Barrier calls DISTRIBUTE
// statements make, by the traced "barrier" collective spans: warm
// column/row moves of one array (ADI's steady state) and moves of a
// connect class {FIELD, COUNT} to fresh B_BLOCK bounds (PIC's rebalance,
// a schedule-cache miss every time), on both transports.  There must be
// none, and every moved value must be exact.
func TestDistributeBarrierFree(t *testing.T) {
	const np = 4
	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			tr := trace.New(np)
			var tp msg.Transport = msg.NewChanTransport(np, msg.WithTracer(tr))
			if transport == "tcp" {
				tcp, err := msg.NewTCPTransport(np, msg.WithTracer(tr))
				if err != nil {
					t.Fatal(err)
				}
				tp = tcp
			}
			m := machine.New(np, machine.WithTransport(tp))
			defer m.Close()
			e := NewEngine(m)
			var barriers [np]int
			if err := m.Run(func(ctx *machine.Ctx) error {
				grid, chain := index.Dim(32, 32), index.Dim(64)
				v := e.MustDeclare(ctx, Decl{Name: "V", Domain: grid, Dynamic: true,
					Init: &DistSpec{Type: dist.NewType(dist.ElidedDim(), dist.BlockDim())}})
				field := e.MustDeclare(ctx, Decl{Name: "FIELD", Domain: chain, Dynamic: true,
					Init: &DistSpec{Type: dist.NewType(dist.BlockDim())}})
				count := e.MustDeclare(ctx, Decl{Name: "COUNT", Domain: chain, Dynamic: true, ConnectTo: "FIELD"})
				vVal := func(p index.Point) float64 { return float64(100*p[0] + p[1]) }
				fVal := func(p index.Point) float64 { return float64(p[0]) + 0.5 }
				cVal := func(p index.Point) float64 { return float64(-3 * p[0]) }
				v.FillFunc(ctx, vVal)
				field.FillFunc(ctx, fVal)
				count.FillFunc(ctx, cVal)
				adi := func() error {
					for _, x := range []Expr{DimsOf(dist.BlockDim(), dist.ElidedDim()), DimsOf(dist.ElidedDim(), dist.BlockDim())} {
						if err := e.Distribute(ctx, []*Array{v}, x); err != nil {
							return err
						}
					}
					return nil
				}
				if err := adi(); err != nil { // builds the schedules: the rest run warm
					return err
				}
				if err := ctx.Barrier(); err != nil {
					return err
				}
				prank := ctx.PhysRank()
				before := len(tr.Events(prank))
				for i := 0; i < 3; i++ {
					if err := adi(); err != nil {
						return err
					}
				}
				for i := 1; i <= 4; i++ {
					b := dist.BBlockDim(10+i, 25+3*i, 41+i, 64)
					if err := e.Distribute(ctx, []*Array{field}, DimsOf(b)); err != nil {
						return err
					}
				}
				for _, ev := range tr.Events(prank)[before:] {
					if ev.Kind == trace.KindBegin && ev.Cat == trace.CatCollective && ev.Name == "barrier" {
						barriers[ctx.Rank()]++
					}
				}
				for _, c := range []struct {
					a   *Array
					val func(index.Point) float64
				}{{v, vVal}, {field, fVal}, {count, cVal}} {
					c.a.Local(ctx).ForEachOwned(func(p index.Point, x *float64) {
						if *x != c.val(p) {
							t.Errorf("rank %d: %s%v = %v, want %v", ctx.Rank(), c.a.Name(), p, *x, c.val(p))
						}
					})
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for r, n := range barriers {
				if n != 0 {
					t.Errorf("rank %d entered %d barriers in 6 ADI and 4 PIC DISTRIBUTE statements, want 0", r, n)
				}
			}
		})
	}
}
