// Command adi is the paper's Figure 1 — an ADI iteration written with
// dynamic data distributions — transcribed to the Go API:
//
//	PARAMETER (NX = 100, NY = 100)
//	REAL U(NX, NY), F(NX, NY) DIST (:, BLOCK)
//	REAL V(NX, NY) DYNAMIC, RANGE( (:, BLOCK), ( BLOCK, :)), DIST (:, BLOCK)
//
//	CALL RESID( V, U, F, NX, NY)
//	DO J = 1, NY            ! sweep over x-lines
//	  CALL TRIDIAG( V(:, J), NX)
//	ENDDO
//	DISTRIBUTE V :: ( BLOCK, : )
//	DO I = 1, NX            ! sweep over y-lines
//	  CALL TRIDIAG( V(I, :), NY)
//	ENDDO
//
// Both sweeps execute with purely local accesses; all communication is
// confined to the DISTRIBUTE statement (paper §4).
package main

import (
	"flag"
	"fmt"
	"log"

	vienna "repro"
	"repro/internal/kernels"
)

// The flags are package-level, so main may run more than once in a
// process (its Example).
var (
	nx        = flag.Int("nx", 100, "grid extent in x")
	ny        = flag.Int("ny", 100, "grid extent in y")
	np        = flag.Int("p", 4, "number of processors")
	iters     = flag.Int("iters", 3, "ADI iterations")
	traceFile = flag.String("trace", "", "write a Chrome trace_event JSON trace to FILE and print the per-phase summary")
)

func main() {
	flag.Parse()

	var mopts []vienna.MachineOption
	var tr *vienna.Tracer
	if *traceFile != "" {
		tr = vienna.NewTracer(*np)
		mopts = append(mopts, vienna.WithTrace(tr))
	}
	m := vienna.NewMachine(*np, mopts...)
	defer m.Close()
	e := vienna.NewEngine(m)
	dom := vienna.Dim(*nx, *ny)

	colDist := vienna.DistSpec{Type: vienna.NewType(vienna.Elided(), vienna.Block())}

	err := m.Run(func(ctx *vienna.Ctx) error {
		// TRIDIAG's constant-coefficient system, factored once per sweep
		// direction and shared by all of its lines.
		tridiag := [2]kernels.Factor{kernels.NewFactor(*nx, -1, 4, -1), kernels.NewFactor(*ny, -1, 4, -1)}
		// REAL U, F DIST(:, BLOCK) — with overlap areas for RESID's
		// nearest-neighbour accesses.
		u := e.MustDeclare(ctx, vienna.Decl{Name: "U", Domain: dom, Static: &colDist, Ghost: []int{1, 1}})
		f := e.MustDeclare(ctx, vienna.Decl{Name: "F", Domain: dom, Static: &colDist})
		// REAL V DYNAMIC, RANGE((:,BLOCK),(BLOCK,:)), DIST(:,BLOCK)
		v := e.MustDeclare(ctx, vienna.Decl{
			Name: "V", Domain: dom, Dynamic: true,
			Range: vienna.Range{
				vienna.NewPattern(vienna.PElided(), vienna.PBlock()),
				vienna.NewPattern(vienna.PBlock(), vienna.PElided()),
			},
			Init: &colDist,
		})

		u.FillFunc(ctx, func(p vienna.Point) float64 { return float64((p[0] + 2*p[1]) % 9) })
		f.FillFunc(ctx, func(p vienna.Point) float64 { return 1.0 })
		ctx.Barrier()

		for it := 0; it < *iters; it++ {
			if it > 0 {
				// back to (:, BLOCK) for the next x-sweep
				e.MustDistribute(ctx, []*vienna.Array{v}, vienna.DimsOf(vienna.Elided(), vienna.Block()))
			}
			// CALL RESID(V, U, F): V(i,j) = F - (4U - neighbours).  The
			// refresh of U's overlap areas is asynchronous: the halos fly
			// as one-sided puts while the interior points (whose stencil
			// reads no ghost cell) are updated, and only the segment-edge
			// points wait for the exchange to complete.
			vienna.PhaseBegin(ctx, "resid")
			h, err := u.StartExchangeAllGhosts(ctx)
			if err != nil {
				return err
			}
			if err := resid(ctx, v, u, f, h); err != nil {
				return err
			}
			ctx.Barrier()
			vienna.PhaseEnd(ctx, "resid")

			// x-line sweep: every column V(:,J) is local under (:,BLOCK)
			vienna.PhaseBegin(ctx, "x-sweep")
			sweepLocal(ctx, v, 0, tridiag[0])
			ctx.Barrier()
			vienna.PhaseEnd(ctx, "x-sweep")

			// DISTRIBUTE V :: (BLOCK, :)
			e.MustDistribute(ctx, []*vienna.Array{v}, vienna.DimsOf(vienna.Block(), vienna.Elided()))

			// y-line sweep: every row V(I,:) is local under (BLOCK,:)
			vienna.PhaseBegin(ctx, "y-sweep")
			sweepLocal(ctx, v, 1, tridiag[1])
			ctx.Barrier()
			vienna.PhaseEnd(ctx, "y-sweep")
		}

		total, err := v.DArray().ReduceSum(ctx)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			fmt.Printf("ADI %dx%d on %d processors, %d iterations\n", *nx, *ny, *np, *iters)
			fmt.Printf("final V distribution: %v (redistributed %d times)\n", v.DistType(ctx.Rank()), v.Epoch(ctx.Rank()))
			fmt.Printf("checksum(V) = %.6f\n", total)
			hits, misses := v.DArray().ScheduleCacheStats()
			fmt.Printf("redistribution schedule cache: %d hits / %d misses\n", hits, misses)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	sn := m.Stats().Snapshot()
	fmt.Printf("traffic: %d data messages, %d bytes (all from DISTRIBUTE + ghost refresh)\n",
		sn.TotalDataMsgs(), sn.TotalBytes())
	if tr != nil {
		if err := tr.WriteJSONFile(*traceFile); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntrace written to %s (load in chrome://tracing or ui.perfetto.dev)\n", *traceFile)
		fmt.Print(tr.Summarize().String())
	}
}

// resid computes V = F - A(U) on locally owned points, overlapping U's
// in-flight ghost exchange h with the interior update: points whose
// stencil stays inside the owned segment are computed first, h.Wait()
// publishes the halos, and the segment-edge points finish the sweep.
// resid only reads U, so the single-buffer split is safe — inbound puts
// touch only U's ghost cells, which the interior pass never reads.
func resid(ctx *vienna.Ctx, v, u, f *vienna.Array, h *vienna.GhostHandle) error {
	lu, lf, lv := u.Local(ctx), f.Local(ctx), v.Local(ctx)
	dom := v.Domain()
	lo, hi, ok := lu.Segment()
	update := func(p vienna.Point, val *float64) {
		i, j := p[0], p[1]
		if i == 1 || i == dom.Hi[0] || j == 1 || j == dom.Hi[1] {
			*val = 0
			return
		}
		*val = lf.At(p) - (4*lu.At(p) -
			lu.At(vienna.Point{i - 1, j}) - lu.At(vienna.Point{i + 1, j}) -
			lu.At(vienna.Point{i, j - 1}) - lu.At(vienna.Point{i, j + 1}))
	}
	// A point is interior when every stencil neighbour is owned (sides on
	// the global boundary have no ghost margin to wait for).
	interior := func(p vienna.Point) bool {
		return ok &&
			(lo[0] <= 1 || p[0] > lo[0]) && (hi[0] >= dom.Hi[0] || p[0] < hi[0]) &&
			(lo[1] <= 1 || p[1] > lo[1]) && (hi[1] >= dom.Hi[1] || p[1] < hi[1])
	}
	lv.ForEachOwned(func(p vienna.Point, val *float64) {
		if interior(p) {
			update(p, val)
		}
	})
	if err := h.Wait(); err != nil {
		return err
	}
	lv.ForEachOwned(func(p vienna.Point, val *float64) {
		if !interior(p) {
			update(p, val)
		}
	})
	return nil
}

// sweepLocal runs TRIDIAG along dimension dim on every locally held line
// (dim is elided, so a line has the global extent f was factored for).
func sweepLocal(ctx *vienna.Ctx, v *vienna.Array, dim int, f kernels.Factor) {
	l := v.Local(ctx)
	alloc := l.AllocShape()
	strd := l.Stride()
	other := 1 - dim
	if alloc[dim] == 0 || alloc[other] == 0 {
		return
	}
	f.Solve(l.Data(), 0, strd[dim], strd[other], alloc[other])
}
