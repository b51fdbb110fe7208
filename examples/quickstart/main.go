// Command quickstart is a minimal tour of the Vienna Fortran dynamic
// distribution API: declare arrays (static and DYNAMIC, with RANGE and
// CONNECT), inspect ownership, execute DISTRIBUTE statements, and query
// distributions with IDT and DCASE.
package main

import (
	"fmt"
	"log"

	vienna "repro"
)

func main() {
	const NP = 4
	m := vienna.NewMachine(NP)
	defer m.Close()
	e := vienna.NewEngine(m)

	err := m.Run(func(ctx *vienna.Ctx) error {
		// PROCESSORS R(1:2, 1:2)
		r := m.ProcsDim("R", 2, 2)

		// REAL C(8,8) DIST(BLOCK, BLOCK) TO R          — static
		c := e.MustDeclare(ctx, vienna.Decl{
			Name: "C", Domain: vienna.Dim(8, 8),
			Static: &vienna.DistSpec{
				Type:   vienna.NewType(vienna.Block(), vienna.Block()),
				Target: r.Whole(),
			},
		})

		// REAL B(8,8) DYNAMIC, RANGE((BLOCK,BLOCK),(*,CYCLIC)),
		//      DIST(BLOCK, CYCLIC) TO R                — dynamic primary
		b := e.MustDeclare(ctx, vienna.Decl{
			Name: "B", Domain: vienna.Dim(8, 8), Dynamic: true,
			Range: vienna.Range{
				vienna.NewPattern(vienna.PBlock(), vienna.PBlock()),
				vienna.NewPattern(vienna.PAny(), vienna.PCyclic(1)),
			},
			Init: &vienna.DistSpec{
				Type:   vienna.NewType(vienna.Block(), vienna.Cyclic(1)),
				Target: r.Whole(),
			},
		})

		// REAL A(8,8) DYNAMIC, CONNECT (=B)            — secondary
		a := e.MustDeclare(ctx, vienna.Decl{
			Name: "A", Domain: vienna.Dim(8, 8), Dynamic: true, ConnectTo: "B",
		})

		// Fill B with a rank-visible pattern and look at ownership.
		b.FillFunc(ctx, func(p vienna.Point) float64 { return float64(p[0]*10 + p[1]) })
		ctx.Barrier()
		if ctx.Rank() == 0 {
			fmt.Printf("declared: %v\n          %v\n          %v\n", c, b, a)
			fmt.Printf("owner of B(5,5): processor %d\n", b.DistOf(ctx.Rank()).Owner(vienna.Point{5, 5}))
			fmt.Printf("B's type: %v   A follows: %v\n", b.DistType(ctx.Rank()), a.DistType(ctx.Rank()))
		}
		ctx.Barrier()

		// DISTRIBUTE B :: (BLOCK, BLOCK) — A moves with its primary.
		e.MustDistribute(ctx, []*vienna.Array{b},
			vienna.DimsOf(vienna.Block(), vienna.Block()).To(r.Whole()))
		// A DISTRIBUTE has no barrier of its own; B(5,5) is read from its
		// owner's storage, so wait until every owner has committed.
		ctx.Barrier()
		if ctx.Rank() == 0 {
			fmt.Printf("after DISTRIBUTE: B %v, A %v (epoch %d)\n", b.DistType(ctx.Rank()), a.DistType(ctx.Rank()), b.Epoch(ctx.Rank()))
			fmt.Printf("B(5,5) still reads %v\n", b.Get(ctx, 5, 5))
		}
		ctx.Barrier()

		// IDT and DCASE
		if ctx.Rank() == 0 {
			fmt.Printf("IDT(B, (BLOCK,*)) = %v\n", vienna.IDT(ctx, b, vienna.NewPattern(vienna.PBlock(), vienna.PAny())))
			picked := ""
			_, err := vienna.Select(ctx, b, a).
				Case(func() error { picked = "both block-block"; return nil },
					vienna.P(vienna.NewPattern(vienna.PBlock(), vienna.PBlock())),
					vienna.P(vienna.NewPattern(vienna.PBlock(), vienna.PBlock()))).
				Default(func() error { picked = "something else"; return nil }).
				Run()
			if err != nil {
				return err
			}
			fmt.Println("DCASE picked:", picked)
		}
		ctx.Barrier()

		// A range violation is rejected and leaves the class untouched.
		if err := e.Distribute(ctx, []*vienna.Array{b},
			vienna.DimsOf(vienna.Cyclic(3), vienna.Cyclic(3)).To(r.Whole())); err != nil {
			if ctx.Rank() == 0 {
				fmt.Println("rejected as declared:", err)
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	sn := m.Stats().Snapshot()
	fmt.Printf("traffic: %d data messages, %d bytes\n", sn.TotalDataMsgs(), sn.TotalBytes())
}
