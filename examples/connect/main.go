// Command connect demonstrates the connect equivalence classes of §2.3 —
// the structured alternative to redistributing related arrays one by one:
//
//   - B is the primary of C(B) = {B, A1, A2}: A1 via distribution
//     extraction (CONNECT (=B)), A2 via a transposing alignment;
//   - one DISTRIBUTE statement moves the whole class, keeping the
//     connections invariant;
//   - NOTRANSFER(A1) re-derives A1's access function without moving its
//     data — what a program does when A1's contents are about to be
//     overwritten anyway ("Data motion is suppressed where data flow
//     analysis, or a NOTRANSFER specification, permits", §3.2.2).
package main

import (
	"fmt"
	"log"

	vienna "repro"
)

func main() {
	const n, np = 8, 4
	m := vienna.NewMachine(np)
	defer m.Close()
	e := vienna.NewEngine(m)

	err := m.Run(func(ctx *vienna.Ctx) error {
		g := m.ProcsDim("G", 2, 2)
		b := e.MustDeclare(ctx, vienna.Decl{
			Name: "B", Domain: vienna.Dim(n, n), Dynamic: true,
			Init: &vienna.DistSpec{Type: vienna.NewType(vienna.Block(), vienna.Block()), Target: g.Whole()},
		})
		a1 := e.MustDeclare(ctx, vienna.Decl{
			Name: "A1", Domain: vienna.Dim(n, n), Dynamic: true, ConnectTo: "B",
		})
		a2 := e.MustDeclare(ctx, vienna.Decl{
			Name: "A2", Domain: vienna.Dim(n, n), Dynamic: true, ConnectTo: "B",
			Align: &vienna.Alignment{Maps: []vienna.AxisMap{vienna.Axis(1), vienna.Axis(0)}},
		})
		b.FillFunc(ctx, func(p vienna.Point) float64 { return float64(10*p[0] + p[1]) })
		a1.FillFunc(ctx, func(p vienna.Point) float64 { return float64(-(10*p[0] + p[1])) })
		a2.FillFunc(ctx, func(p vienna.Point) float64 { return 0.5 * float64(10*p[0]+p[1]) })
		ctx.Barrier()

		if ctx.Rank() == 0 {
			fmt.Println("class C(B):")
			for _, mbr := range b.ClassMembers() {
				fmt.Printf("  %s: %v\n", mbr.Name(), mbr.DistType(ctx.Rank()))
			}
			fmt.Printf("alignment invariant: owner A2(3,5) = %d, owner B(5,3) = %d\n",
				a2.DistOf(ctx.Rank()).Owner(vienna.Point{3, 5}), b.DistOf(ctx.Rank()).Owner(vienna.Point{5, 3}))
		}
		// One DISTRIBUTE moves the whole class; A1's data stays put.  The
		// traffic base is taken before the barrier: past it, other ranks
		// may already be sending.
		base := m.Stats().Snapshot()
		ctx.Barrier()
		e.MustDistribute(ctx, []*vienna.Array{b},
			vienna.DimsOf(vienna.Cyclic(1), vienna.Block()).To(g.Whole()), vienna.NoTransfer(a1))
		ctx.Barrier()
		if ctx.Rank() == 0 {
			d := m.Stats().Snapshot().Sub(base)
			fmt.Printf("\nafter DISTRIBUTE B :: (CYCLIC,BLOCK) NOTRANSFER(A1):\n")
			for _, mbr := range b.ClassMembers() {
				fmt.Printf("  %s: %v (epoch %d)\n", mbr.Name(), mbr.DistType(ctx.Rank()), mbr.Epoch(ctx.Rank()))
			}
			fmt.Printf("  B(3,5) = %v (moved), A2 still mirrors B through the alignment\n", b.Get(ctx, 3, 5))
			fmt.Printf("  traffic for the class move: %d data messages, %d bytes\n",
				d.TotalDataMsgs(), d.TotalBytes())
			fmt.Printf("  alignment invariant still holds: %v\n",
				a2.DistOf(ctx.Rank()).Owner(vienna.Point{3, 5}) == b.DistOf(ctx.Rank()).Owner(vienna.Point{5, 3}))
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
