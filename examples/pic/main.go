// Command pic is the paper's Figure 2 — the outermost level of a
// particle-in-cell code with B_BLOCK load balancing — transcribed to the
// Go API:
//
//	PARAMETER (NCELL = ..., NPART = ...)
//	INTEGER BOUNDS($NP)
//	REAL FIELD(NCELL, NPART, ...) DYNAMIC, DIST( BLOCK, :, :)
//
//	CALL initpos(FIELD, ...)
//	CALL balance(BOUNDS, FIELD, ...)
//	DISTRIBUTE FIELD :: B_BLOCK (BOUNDS)
//	DO k = 1, MAX_TIME
//	  CALL update_field(FIELD, ...)
//	  CALL update_part(FIELD, ...)
//	  IF (MOD(k,10) .EQ. 0 .AND. rebalance() ) THEN
//	    CALL balance(BOUNDS, FIELD, ...)
//	    DISTRIBUTE FIELD :: B_BLOCK (BOUNDS)
//	  ENDIF
//	ENDDO
//
// Run with -rebalance=false to watch the static BLOCK distribution's load
// balance degrade as particles drift (§4: "the motion of particles during
// the simulation may lead to a severe load imbalance").
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/apps"
)

// The flags are package-level, so main may run more than once in a
// process (its Example).
var (
	ncell     = flag.Int("ncell", 256, "number of cells")
	steps     = flag.Int("steps", 60, "time steps")
	np        = flag.Int("p", 4, "number of processors")
	rebalance = flag.Bool("rebalance", true, "enable B_BLOCK rebalancing (Figure 2)")
	drift     = flag.Float64("drift", 0.25, "fraction of particles drifting per step")
)

func main() {
	flag.Parse()

	res, err := apps.RunPIC(apps.PICConfig{
		NCell: *ncell, Steps: *steps, P: *np,
		Rebalance: *rebalance, DriftFrac: *drift,
	})
	if err != nil {
		log.Fatal(err)
	}

	mode := "static BLOCK"
	if *rebalance {
		mode = "B_BLOCK(BOUNDS), rebalanced every 10 steps"
	}
	fmt.Printf("PIC: %d cells on %d processors, %d steps, %s\n", *ncell, *np, *steps, mode)
	fmt.Printf("particles: %.0f -> %.0f (conserved: %v)\n",
		res.ParticlesStart, res.ParticlesEnd, res.ParticlesStart == res.ParticlesEnd)
	fmt.Printf("load imbalance (max/avg particles per processor):\n")
	for k := 0; k < len(res.ImbalanceSeries); k += 10 {
		fmt.Printf("  step %3d: %.3f\n", k+1, res.ImbalanceSeries[k])
	}
	fmt.Printf("  final:    %.3f (peak %.3f, mean %.3f)\n",
		res.FinalImbalance, res.PeakImbalance, res.MeanImbalance)
	fmt.Printf("redistributions: %d (%d bytes moved by DISTRIBUTE)\n", res.Redistributions, res.RedistBytes)
}
