package vienna_test

import (
	"fmt"

	vienna "repro"
)

// Example reproduces the heart of the paper's Figure 1: a DYNAMIC array
// redistributed between computation phases, with both phases operating on
// purely local data.
func Example() {
	m := vienna.NewMachine(4)
	defer m.Close()
	e := vienna.NewEngine(m)
	_ = m.Run(func(ctx *vienna.Ctx) error {
		// REAL V(64,64) DYNAMIC, RANGE((:,BLOCK),(BLOCK,:)), DIST(:,BLOCK)
		v := e.MustDeclare(ctx, vienna.Decl{
			Name: "V", Domain: vienna.Dim(64, 64), Dynamic: true,
			Range: vienna.Range{
				vienna.NewPattern(vienna.PElided(), vienna.PBlock()),
				vienna.NewPattern(vienna.PBlock(), vienna.PElided()),
			},
			Init: &vienna.DistSpec{Type: vienna.NewType(vienna.Elided(), vienna.Block())},
		})
		// ... x-sweep: every column V(:,J) is local ...

		// DISTRIBUTE V :: (BLOCK, :)
		e.MustDistribute(ctx, []*vienna.Array{v},
			vienna.DimsOf(vienna.Block(), vienna.Elided()))
		// ... y-sweep: every row V(I,:) is local ...

		if ctx.Rank() == 0 {
			fmt.Println("V is now", v.DistType(ctx.Rank()))
		}
		return nil
	})
	// Output: V is now (BLOCK,:)
}

// ExampleSelect shows the DCASE construct dispatching on the current
// distribution type (paper §2.5.1).
func ExampleSelect() {
	m := vienna.NewMachine(2)
	defer m.Close()
	e := vienna.NewEngine(m)
	_ = m.Run(func(ctx *vienna.Ctx) error {
		b := e.MustDeclare(ctx, vienna.Decl{
			Name: "B", Domain: vienna.Dim(16), Dynamic: true,
			Init: &vienna.DistSpec{Type: vienna.NewType(vienna.Cyclic(2))},
		})
		if ctx.Rank() != 0 {
			return nil
		}
		_, err := vienna.Select(ctx, b).
			Case(func() error { fmt.Println("block algorithm"); return nil },
				vienna.P(vienna.NewPattern(vienna.PBlock()))).
			Case(func() error { fmt.Println("cyclic algorithm"); return nil },
				vienna.P(vienna.NewPattern(vienna.PCyclicAny()))).
			Default(func() error { fmt.Println("generic algorithm"); return nil }).
			Run()
		return err
	})
	// Output: cyclic algorithm
}

// ExampleIDT shows the intrinsic distribution test (paper §2.5.2).
func ExampleIDT() {
	m := vienna.NewMachine(2)
	defer m.Close()
	e := vienna.NewEngine(m)
	_ = m.Run(func(ctx *vienna.Ctx) error {
		b := e.MustDeclare(ctx, vienna.Decl{
			Name: "B", Domain: vienna.Dim(8, 8), Dynamic: true,
			Init: &vienna.DistSpec{Type: vienna.NewType(vienna.Elided(), vienna.Block())},
		})
		if ctx.Rank() == 0 {
			fmt.Println(vienna.IDT(ctx, b, vienna.NewPattern(vienna.PElided(), vienna.PBlock())))
		}
		return nil
	})
	// Output: true
}
