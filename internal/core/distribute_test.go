package core

import (
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/trace"
)

// warmStatementAllocs counts what one warm DISTRIBUTE statement
// allocates per rank: body declares the arrays and returns a pair of
// statements that ends where it starts, which runs once to build the
// schedules, plans and window and to park both Locals, and then warm.
// testing.AllocsPerRun counts the whole process, so rank 0 measures
// while the other ranks run the same collective calls, and the figure is
// divided by the rank count.  opts configure the machine.
func warmStatementAllocs(t *testing.T, body func(ctx *machine.Ctx, e *Engine) (pair [2]func() error), opts ...machine.Option) float64 {
	const np, runs = 4, 50
	var perRank float64
	run(t, np, func(ctx *machine.Ctx, e *Engine) error {
		stmts := body(ctx, e)
		var failed error
		pair := func() {
			for _, s := range stmts {
				if err := s(); err != nil && failed == nil {
					failed = err
				}
			}
		}
		pair()
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
	}, opts...)
	return perRank
}

// TestDistributeStatementWarmAllocs: a warm DISTRIBUTE statement on an
// untraced run allocates nothing in any of its forms — its expression
// resolves to a distribution the rank holds (evaluated on the stack,
// compared field by field), a secondary's derivation to the one it made
// from the same primary distribution, options and class lists live in
// plain values and per-rank storage, and the move is in the rank's
// table.  The forms: Figure 1's pair (:,BLOCK) <-> (BLOCK,:); Example
// 3's extraction (=B1, CYCLIC(3)) onto a 2×2 section; a connect class
// whose secondary is aligned transposed; and Figure 1's pair again under
// a 1 s CommTimeout, whose timed receives re-arm the deadlines their
// mailboxes kept.
func TestDistributeStatementWarmAllocs(t *testing.T) {
	rows := DimsOf(dist.BlockDim(), dist.ElidedDim())
	cols := DimsOf(dist.ElidedDim(), dist.BlockDim())
	colsInit := &DistSpec{Type: dist.NewType(dist.ElidedDim(), dist.BlockDim())}
	adi := func(ctx *machine.Ctx, e *Engine) [2]func() error {
		v := e.MustDeclare(ctx, Decl{Name: "V", Domain: index.Dim(64, 64), Dynamic: true, Init: colsInit})
		to := func(x Expr) func() error { return func() error { return e.Distribute(ctx, []*Array{v}, x) } }
		return [2]func() error{to(rows), to(cols)}
	}
	forms := []struct {
		name string
		body func(ctx *machine.Ctx, e *Engine) [2]func() error
		opts []machine.Option
	}{
		{"adi", adi, nil},
		{"adi-timeout", adi, []machine.Option{machine.WithRetry(msg.RetryPolicy{Timeout: time.Second})}},
		{"extraction", func(ctx *machine.Ctx, e *Engine) [2]func() error {
			grid := e.Machine().ProcsDim("R", 2, 2).Whole()
			e.MustDeclare(ctx, Decl{Name: "B1", Domain: index.Dim(64), Dynamic: true,
				Init: &DistSpec{Type: dist.NewType(dist.BlockDim())}})
			b4 := e.MustDeclare(ctx, Decl{Name: "B4", Domain: index.Dim(64, 48), Dynamic: true,
				Init: &DistSpec{Type: dist.NewType(dist.BlockDim(), dist.BlockDim()), Target: grid}})
			extract := Dims(From("B1"), Lit(dist.CyclicDim(3))).To(grid)
			blocks := DimsOf(dist.BlockDim(), dist.BlockDim()).To(grid)
			to := func(x Expr) func() error { return func() error { return e.Distribute(ctx, []*Array{b4}, x) } }
			return [2]func() error{to(extract), to(blocks)}
		}, nil},
		{"class", func(ctx *machine.Ctx, e *Engine) [2]func() error {
			a := e.MustDeclare(ctx, Decl{Name: "A", Domain: index.Dim(64, 48), Dynamic: true, Init: colsInit})
			tr := dist.Transpose2D()
			e.MustDeclare(ctx, Decl{Name: "S", Domain: index.Dim(48, 64), Dynamic: true, ConnectTo: "A", Align: &tr})
			to := func(x Expr) func() error { return func() error { return e.Distribute(ctx, []*Array{a}, x) } }
			return [2]func() error{to(rows), to(cols)}
		}, nil},
	}
	for _, f := range forms {
		t.Run(f.name, func(t *testing.T) {
			// Measured: 0 in every form (8.9, 4.5 and 21.9 while every
			// statement built its mappings anew; 17.9 under the timeout
			// while every timed receive armed a fresh timer).
			if perRank := warmStatementAllocs(t, f.body, f.opts...); perRank > 0 {
				t.Errorf("warm DISTRIBUTE statement (%s): %.2f allocs per rank, want 0", f.name, perRank)
			}
		})
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
