package core

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
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
