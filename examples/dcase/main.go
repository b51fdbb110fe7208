// Command dcase executes the paper's Example 4 — the DCASE construct —
// showing how the executed arm tracks the arrays' current distributions
// as DISTRIBUTE statements change them at run time.
//
//	SELECT DCASE (B1,B2,B3)
//	  CASE (BLOCK),(BLOCK),(CYCLIC(2),CYCLIC)
//	    a1
//	  CASE B1: (CYCLIC), B3:( BLOCK, *))
//	    a2
//	  CASE B3:( BLOCK, CYCLIC)
//	    a3
//	  CASE DEFAULT
//	    a4
//	END SELECT
package main

import (
	"fmt"
	"log"

	vienna "repro"
)

func main() {
	const np = 4
	m := vienna.NewMachine(np)
	defer m.Close()
	e := vienna.NewEngine(m)

	err := m.Run(func(ctx *vienna.Ctx) error {
		r := m.ProcsDim("R", 2, 2)
		b1 := e.MustDeclare(ctx, vienna.Decl{Name: "B1", Domain: vienna.Dim(16), Dynamic: true,
			Init: &vienna.DistSpec{Type: vienna.NewType(vienna.Block())}})
		b2 := e.MustDeclare(ctx, vienna.Decl{Name: "B2", Domain: vienna.Dim(16), Dynamic: true,
			Init: &vienna.DistSpec{Type: vienna.NewType(vienna.Block())}})
		b3 := e.MustDeclare(ctx, vienna.Decl{Name: "B3", Domain: vienna.Dim(16, 16), Dynamic: true,
			Init: &vienna.DistSpec{Type: vienna.NewType(vienna.Cyclic(2), vienna.Cyclic(1)), Target: r.Whole()}})

		runDCase := func(when string) error {
			if ctx.Rank() != 0 {
				return nil
			}
			arm, err := vienna.Select(ctx, b1, b2, b3).
				Case(func() error { fmt.Println("  -> a1"); return nil },
					vienna.P(vienna.NewPattern(vienna.PBlock())),
					vienna.P(vienna.NewPattern(vienna.PBlock())),
					vienna.P(vienna.NewPattern(vienna.PCyclic(2), vienna.PCyclic(1)))).
				Case(func() error { fmt.Println("  -> a2"); return nil },
					vienna.On("B1", vienna.NewPattern(vienna.PCyclic(1))),
					vienna.On("B3", vienna.NewPattern(vienna.PBlock(), vienna.PAny()))).
				Case(func() error { fmt.Println("  -> a3"); return nil },
					vienna.On("B3", vienna.NewPattern(vienna.PBlock(), vienna.PCyclic(1)))).
				Default(func() error { fmt.Println("  -> a4 (DEFAULT)"); return nil }).
				Run()
			if err != nil {
				return err
			}
			fmt.Printf("%s: B1=%v B2=%v B3=%v matched arm %d\n",
				when, b1.DistType(ctx.Rank()), b2.DistType(ctx.Rank()), b3.DistType(ctx.Rank()), arm+1)
			return nil
		}

		if err := runDCase("initial"); err != nil {
			return err
		}
		ctx.Barrier()

		// DISTRIBUTE B1 :: (CYCLIC); DISTRIBUTE B3 :: (BLOCK, CYCLIC(7))
		e.MustDistribute(ctx, []*vienna.Array{b1}, vienna.DimsOf(vienna.Cyclic(1)))
		e.MustDistribute(ctx, []*vienna.Array{b3},
			vienna.DimsOf(vienna.Block(), vienna.Cyclic(7)).To(r.Whole()))
		if err := runDCase("after DISTRIBUTE B1::(CYCLIC), B3::(BLOCK,CYCLIC(7))"); err != nil {
			return err
		}
		ctx.Barrier()

		// DISTRIBUTE B3 :: (BLOCK, CYCLIC)
		e.MustDistribute(ctx, []*vienna.Array{b3},
			vienna.DimsOf(vienna.Block(), vienna.Cyclic(1)).To(r.Whole()))
		e.MustDistribute(ctx, []*vienna.Array{b1}, vienna.DimsOf(vienna.Block()))
		if err := runDCase("after DISTRIBUTE B3::(BLOCK,CYCLIC), B1::(BLOCK)"); err != nil {
			return err
		}
		ctx.Barrier()

		// nothing matches -> DEFAULT
		e.MustDistribute(ctx, []*vienna.Array{b3},
			vienna.DimsOf(vienna.Cyclic(1), vienna.Cyclic(1)).To(r.Whole()))
		return runDCase("after DISTRIBUTE B3::(CYCLIC,CYCLIC)")
	})
	if err != nil {
		log.Fatal(err)
	}
}
