// Command vfrun parses a Vienna Fortran subset program, checks it, and
// *executes* it on the Vienna Fortran Engine with P logical processors —
// front end (internal/lang, internal/sem) and runtime (internal/interp,
// internal/core) end to end.
//
//	vfrun -p 4 program.vf
//	vfrun -p 4 -demo fig1|fig2
//
// The program runs under the step loop of internal/apps
// (apps.RunListing): its last top-level DO is the loop whose trips
// -ckpt-dir checkpoints, -recover and -online-recover resume after, and
// whose boundaries -drain acts at.  After the run it prints every array's
// checksum and final distribution type, the scalar environment, and the
// traffic the program generated.  Figure 2 (apps.Fig2Source) runs
// apps.RunPIC's own helper procedures and computes what RunPIC does: its
// FIELD, COUNT and DISTRIBUTE count.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/lang"
	"repro/internal/msg"
	"repro/internal/pario"
	"repro/internal/redist"
	"repro/internal/scale"
	"repro/internal/sem"
	"repro/internal/trace"
)

func main() {
	np := flag.Int("p", 4, "number of processors")
	demo := flag.String("demo", "", "run a built-in paper listing: fig1|fig2")
	report := flag.Bool("analyze", false, "print the reaching-distribution report before running")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON trace of the run to FILE and print the per-phase summary")
	faultSpec := flag.String("fault", "", "inject transport faults, e.g. 'senderr,rank=1,after=3,count=2;drop,peer=2,count=1' (kinds: "+msg.FaultKinds()+"; see msg.ParseFaultPlan)")
	commTimeout := flag.Duration("comm-timeout", 0, "per-receive deadline inside collectives (0 = wait forever)")
	commRetries := flag.Int("comm-retries", 0, "bounded retries for failed or timed-out collective operations")
	ckptDir := flag.String("ckpt-dir", "", "take coordinated checkpoints into DIR after trips of the program's driver loop (its last top-level DO)")
	ckptEvery := flag.Int("ckpt-every", 1, "checkpoint after every N-th trip of the driver loop")
	ioRedundancy := flag.String("io-redundancy", "", "checkpoint redundancy mode: parity (default), replica, or none")
	ckptKeep := flag.Int("ckpt-keep", 0, "keep only the newest N committed checkpoint epochs (0 = keep all)")
	ioFault := flag.String("io-fault", "", "inject disk faults under the checkpoint paths, e.g. 'eio,op=write,count=2;bitrot,path=rank-0001' (kinds: "+pario.FaultKinds()+"; see pario.ParseFaultPlan)")
	recoverRun := flag.Bool("recover", false, "restore the latest committed checkpoint in -ckpt-dir and resume after the trip it was taken after (the survivors' rank count may differ from the writer's)")
	onlineRec := flag.Bool("online-recover", false, "recover from a mid-run rank loss in-process: survivors regroup onto the next membership epoch and replay the last committed checkpoint (requires -ckpt-dir)")
	deadline := flag.Duration("deadline", 0, "kill the whole process with a goroutine dump if it runs longer than this (hang watchdog; 0 = off)")
	redistBudget := flag.String("redist-budget", "", "bound each DISTRIBUTE's peak resident wire bytes per rank, e.g. 64K, 2M (empty/0 = unbounded)")
	elastic := flag.Bool("elastic", false, "after the run, print the cost-driven grow/shrink advice for P±1 ranks from the run's measured trace (see internal/scale)")
	healthWin := flag.Int("health-window", 0, "score per-rank health from heartbeat-carried work reports over this EWMA observation window and print the report after the run (0 = off; see internal/health)")
	drain := flag.Bool("drain", false, "voluntarily drain a rank classified Degraded at a trip boundary of the driver loop: members checkpoint, shrink the membership by one epoch and replay the checkpoint (requires -health-window and -ckpt-dir)")
	slowRank := flag.Int("slow-rank", 1, "physical rank the straggler injection marks slow (with -slow-factor)")
	slowFactor := flag.Float64("slow-factor", 1, "inflate -slow-rank's reported cost of every compute statement by this factor so the health scorer sees a straggler (<=1 = no injection)")
	flag.Parse()
	armDeadline(*deadline)
	budget, err := redist.ParseBudget(*redistBudget)
	if err != nil {
		log.Fatal(err)
	}

	var src, name string
	switch {
	case *demo == "fig1":
		name = "demo:fig1"
		src = `
PARAMETER (NX = 64, NY = 64)
REAL U(NX, NY), F(NX, NY) DIST (:, BLOCK)
REAL V(NX, NY) DYNAMIC, RANGE( (:, BLOCK), ( BLOCK, :)), &
&    DIST (:, BLOCK)

DO J = 1, NY
  DO I = 1, NX
    U(I, J) = MOD(I * 3 + J * 7, 5)
    F(I, J) = 1
  ENDDO
ENDDO

CALL RESID( V, U, F, NX, NY)

C Sweep over x-lines
DO J = 1, NY
  CALL TRIDIAG( V(:, J), NX)
ENDDO

DISTRIBUTE V :: ( BLOCK, : )

C Sweep over y-lines
DO I = 1, NX
  CALL TRIDIAG( V(I, :), NY)
ENDDO
`
	case *demo == "fig2":
		name = "demo:fig2"
		src = apps.Fig2Source
	case *demo != "":
		log.Fatalf("unknown demo %q", *demo)
	case flag.NArg() == 1:
		name = flag.Arg(0)
		b, err := os.ReadFile(name)
		if err != nil {
			log.Fatal(err)
		}
		src = string(b)
	default:
		fmt.Fprintln(os.Stderr, "usage: vfrun [-p N] <file.vf> | vfrun -demo fig1|fig2")
		os.Exit(2)
	}

	prog, err := lang.Parse(src)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	unit := sem.Analyze(prog)
	if unit.HasErrors() {
		for _, d := range unit.Diags {
			fmt.Fprintln(os.Stderr, d)
		}
		os.Exit(1)
	}
	if *report {
		fmt.Print(analysis.Analyze(unit).Report())
		fmt.Println()
	}

	// The run settings, prerequisites included, are checked once, by
	// apps.NewMachine; apps.RunListing runs the program under the step
	// loop the applications share.
	rt := apps.Runtime{
		Fault: *faultSpec, CommTimeout: *commTimeout, CommRetries: *commRetries,
		CkptDir: *ckptDir, CkptEvery: *ckptEvery, Recover: *recoverRun, OnlineRecover: *onlineRec,
		IO:        ckpt.Options{Redundancy: *ioRedundancy, Keep: *ckptKeep},
		MemBudget: budget,
		Straggler: apps.StragglerConfig{HealthWindow: *healthWin, SlowRank: *slowRank, SlowFactor: *slowFactor},
	}
	if *drain {
		rt.Straggler.Policy = "drain"
	}
	if *ioFault != "" {
		plan, err := pario.ParseFaultPlan(*ioFault)
		if err != nil {
			log.Fatal(err)
		}
		rt.IO.FS = pario.NewFaultFS(pario.OS{}, plan).Rank
		rt.IO.Retry = msg.RetryPolicy{Timeout: time.Second, Retries: 2}
	}
	var tr *trace.Tracer
	if *traceFile != "" || *elastic {
		tr = trace.New(*np)
		rt.Tracer = tr
	}
	if *onlineRec || *healthWin > 0 {
		// The health scorer's work reports ride on the heartbeats too.
		rt = rt.Resilient(150 * time.Millisecond)
	}
	res, err := apps.RunListing(unit, *np, rt)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}

	fmt.Printf("== %s on %d processors ==\n", name, *np)
	fmt.Println("arrays:")
	for _, a := range res.Arrays {
		fmt.Printf("  %-8s checksum %.6f   final dist %s   (redistributed %d times)\n",
			a.Name, a.Sum, a.Dist, a.Distributes)
	}
	var names []string
	for k := range res.Scalars {
		if k[0] != '$' {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Println("scalars:")
		for _, k := range names {
			fmt.Printf("  %-8s %v\n", k, res.Scalars[k])
		}
	}
	fmt.Printf("traffic: %d data messages, %d bytes\n", res.Msgs, res.Bytes)
	if res.FinalEpoch > 0 {
		fmt.Printf("membership: finished on epoch %d, survivors %v\n", res.FinalEpoch, res.Survivors)
	}
	for _, r := range res.Drained {
		fmt.Printf("drained: rank %d left the membership at an iteration boundary; the survivors replayed the checkpoint and finished on %d ranks\n",
			r, *np-len(res.Drained))
	}
	if *healthWin > 0 && res.Health != nil {
		fmt.Println("health:")
		for _, rr := range res.Health {
			suffix := ""
			if rr.EverDegraded {
				suffix = "  [classified Degraded during the run]"
			}
			fmt.Printf("  %s%s\n", rr, suffix)
		}
	}
	if *elastic {
		printScaleAdvice(tr.Summarize(), *np, res.Wall)
	}
	if tr != nil && *traceFile != "" {
		if err := tr.WriteJSONFile(*traceFile); err != nil {
			log.Fatalf("writing trace: %v", err)
		}
		fmt.Printf("\ntrace written to %s (load in chrome://tracing or ui.perfetto.dev)\n", *traceFile)
		fmt.Print(tr.Summarize().String())
	}
}

// printScaleAdvice feeds the run's own measurements to the cost-driven
// grow/shrink policy (internal/scale): each executed DISTRIBUTE marks a
// computational phase boundary, so the program's phase count is the
// policy horizon, the trace's per-phase DISTRIBUTE cost is the one-time
// resize price, and the α/β-modeled share of the traffic is the
// np-invariant communication component.
func printScaleAdvice(sum *trace.Summary, np int, wall time.Duration) {
	const alpha, beta = 1e-4, 1e-8 // modeled machine, as in vfbench defaults
	steps := 0
	for _, p := range sum.Phases {
		if p.Cat == trace.CatDistribute {
			steps += p.Count
		}
	}
	if steps == 0 {
		steps = 1
	}
	comm := (alpha*float64(sum.TotalMsgs) + beta*float64(sum.TotalBytes)) / float64(np)
	compute := wall.Seconds() - comm
	if compute < 0 {
		compute = 0
	}
	inv := 1 / float64(steps)
	ps := scale.PerStep{Compute: compute * inv, Comm: comm * inv}
	rc := scale.RedistCost(sum)
	fmt.Printf("elastic advice (%d phases, modeled alpha=%.0e beta=%.0e):\n", steps, alpha, beta)
	for _, npNew := range []int{np + 1, np - 1} {
		if npNew < 1 {
			continue
		}
		adv := scale.Recommend(scale.Params{NP: np, NPNew: npNew, StepsLeft: steps, Step: ps, Redist: rc})
		fmt.Printf("  %d -> %d ranks: %s\n", np, npNew, adv)
	}
}

// armDeadline is a hang watchdog: if the run exceeds d, dump every
// goroutine's stack to stderr and kill the process with a nonzero exit,
// so a wedged collective is diagnosable instead of an eternal hang.
func armDeadline(d time.Duration) {
	if d <= 0 {
		return
	}
	time.AfterFunc(d, func() {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		fmt.Fprintf(os.Stderr, "vfrun: -deadline %v exceeded; goroutine dump:\n%s\n", d, buf[:n])
		os.Exit(2)
	})
}
