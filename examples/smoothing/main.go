// Command smoothing demonstrates the first §4 use case: choosing the data
// distribution *at run time* from the grid size (an input parameter) and
// the executing machine's characteristics ($NP, message startup α, per-
// byte cost β):
//
//	"A column distribution of the N × N grid will give rise to 2
//	 messages per processor, each of size N, per computation step.  On
//	 the other hand, if the grid is distributed by blocks in two
//	 dimensions across a p² processor array, then each computation step
//	 requires 4 messages of size N/p each ... the ratio N/p will
//	 determine the most appropriate distribution."
//
// The grid is DYNAMIC; after the decision the program issues a single
// DISTRIBUTE and the smoothing loop runs with only ghost-area exchanges,
// k layers deep once every k steps, k chosen by the same machine model.
// A DCASE construct then dispatches on the chosen distribution.
package main

import (
	"flag"
	"fmt"
	"log"

	vienna "repro"
	"repro/internal/apps"
)

// The flags are package-level, so main may run more than once in a
// process (its Example).
var (
	n     = flag.Int("n", 256, "grid size N (NxN)")
	np    = flag.Int("p", 4, "number of processors (square for 2-D blocks)")
	steps = flag.Int("steps", 10, "smoothing steps")
	alpha = flag.Float64("alpha", 1e-4, "machine message startup (s)")
	beta  = flag.Float64("beta", 1e-9, "machine per-byte cost (s)")
)

func main() {
	flag.Parse()

	// The §4 runtime decisions: the distribution, then the halo depth k
	// (ghosts exchanged once every k steps) for it.
	mode := apps.ChooseSmoothingDist(*n, *np, *alpha, *beta)
	cc, cb := apps.SmoothModelCost(*n, *np, 1, *alpha, *beta)
	k := apps.SmoothDepth(mode, *n, *np, *alpha, *beta)
	fmt.Printf("N=%d, P=%d, alpha=%.1e, beta=%.1e\n", *n, *np, *alpha, *beta)
	fmt.Printf("modeled cost/step: columns %.3e s, 2-D blocks %.3e s -> choose %v, halo depth %d\n", cc, cb, mode, k)

	res, err := apps.RunSmoothing(apps.SmoothConfig{
		N: *n, Steps: *steps, P: *np, Mode: mode,
		Alpha: *alpha, Beta: *beta, Validate: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran %d steps under %v, halo depth %d: %.2f msgs/proc/step, %.0f bytes/proc/step\n",
		*steps, res.Mode, res.Depth, res.MsgsPerProcStep, res.BytesPerProcStep)
	fmt.Printf("modeled time %.4fs, max deviation from serial %.2e\n", res.ModelTime, res.MaxErr)

	// The same decision expressed as a DCASE over the declared array —
	// what a Vienna Fortran program does after the DISTRIBUTE.
	m := vienna.NewMachine(*np)
	defer m.Close()
	e := vienna.NewEngine(m)
	err = m.Run(func(ctx *vienna.Ctx) error {
		spec := &vienna.DistSpec{Type: vienna.NewType(vienna.Elided(), vienna.Block())}
		if mode == apps.SmoothBlock2D {
			q := 0
			for q*q < *np {
				q++
			}
			g := m.ProcsDim("G", q, q)
			spec = &vienna.DistSpec{Type: vienna.NewType(vienna.Block(), vienna.Block()), Target: g.Whole()}
		}
		grid := e.MustDeclare(ctx, vienna.Decl{
			Name: "GRID", Domain: vienna.Dim(*n, *n), Dynamic: true, Init: spec,
		})
		if ctx.Rank() != 0 {
			return nil
		}
		_, err := vienna.Select(ctx, grid).
			Case(func() error {
				fmt.Println("DCASE: column algorithm selected — 2 shift messages per step")
				return nil
			}, vienna.P(vienna.NewPattern(vienna.PElided(), vienna.PBlock()))).
			Case(func() error {
				fmt.Println("DCASE: 2-D block algorithm selected — one face message per neighbour per step (4 in the interior, 2 on a 2x2 array)")
				return nil
			}, vienna.P(vienna.NewPattern(vienna.PBlock(), vienna.PBlock()))).
			Default(func() error {
				fmt.Println("DCASE: unexpected distribution")
				return nil
			}).Run()
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
}
