// Command vfbench regenerates the paper's evaluation artifacts as tables
// (see DESIGN.md per-experiment index; results are recorded in
// EXPERIMENTS.md):
//
//	vfbench -exp adi        Figure 1 / claim C2
//	vfbench -exp pic        Figure 2 / claim C3
//	vfbench -exp smoothing  §4 claim C1 (N/p crossover)
//	vfbench -exp redist     §4 claim C4 (DISTRIBUTE cost, amortization)
//	vfbench -exp expand     elastic scale-out (rank join + grow policy)
//	vfbench -exp degraded   rank-file checkpoint I/O, redundancy, self-healing restore
//	vfbench -exp straggler  straggler defense (health scoring, weighted rebalance, voluntary drain)
//	vfbench -exp all        everything
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"
	"time"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/dist"
	"repro/internal/health"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/pario"
	"repro/internal/redist"
	"repro/internal/scale"
	"repro/internal/trace"
)

var (
	alpha       = flag.Float64("alpha", 1e-4, "modeled message startup (s)")
	beta        = flag.Float64("beta", 1e-8, "modeled per-byte cost (s)")
	quick       = flag.Bool("quick", false, "smaller sizes (for smoke runs)")
	traceFile   = flag.String("trace", "", "trace the first dynamic ADI run to FILE (Chrome trace_event JSON) and print its per-phase summary")
	faultSpec   = flag.String("fault", "", "inject transport faults into the ADI runs, e.g. 'senderr,rank=1,after=3,count=2' (kinds: "+msg.FaultKinds()+"; see msg.ParseFaultPlan)")
	commTimeout = flag.Duration("comm-timeout", 0, "per-receive collective deadline for the ADI runs (0 = wait forever; matches vfrun)")
	commRetries = flag.Int("comm-retries", 0, "bounded retries for failed or timed-out collective operations in the ADI runs (matches vfrun)")
	ckptDir     = flag.String("ckpt-dir", "", "write coordinated checkpoints of the ADI runs into this directory (see internal/ckpt)")
	ckptEvery   = flag.Int("ckpt-every", 1, "checkpoint period in iterations (with -ckpt-dir)")
	recoverRun  = flag.Bool("recover", false, "resume the ADI runs from the latest committed checkpoint in -ckpt-dir")
	onlineRec   = flag.Bool("online-recover", false, "recover from a mid-run rank loss in-process: survivors regroup onto the next membership epoch and replay the last committed checkpoint (ADI runs; requires -ckpt-dir)")
	deadline    = flag.Duration("deadline", 0, "kill the whole process with a goroutine dump if it runs longer than this (hang watchdog; 0 = off)")
	redistBgt   = flag.String("redist-budget", "", "bound each redistribution's peak resident wire bytes per rank in -exp redist, e.g. 64K, 2M (empty/0 = unbounded)")
	elastic     = flag.Int("elastic", 0, "reserve N joiner ranks in the ADI runs and admit them at the first elastic iteration boundary (requires -ckpt-dir; see -exp expand for the full demo)")
	joinAfter   = flag.Int("join-after", 2, "first iteration boundary at which elastic runs poll for pending joiners (with -elastic / -exp expand)")
	ioRedund    = flag.String("io-redundancy", "", "checkpoint redundancy mode: parity (default), replica, or none")
	ckptKeep    = flag.Int("ckpt-keep", 0, "keep only the newest N committed checkpoint epochs (0 = keep all)")
	ioFault     = flag.String("io-fault", "", "inject disk faults under the checkpoint paths, e.g. 'eio,op=write,count=2;bitrot,path=rank-0001' (kinds: "+pario.FaultKinds()+"; see pario.ParseFaultPlan)")
	healthWin   = flag.Int("health-window", 4, "health scorer observation window for -exp straggler (heartbeat-fed EWMA throughput; matches vfrun)")
	slowRank    = flag.Int("slow-rank", 2, "physical rank whose compute sections -exp straggler stretches")
	slowFactor  = flag.Float64("slow-factor", 8, "compute slowdown injected on -slow-rank in -exp straggler (<=1 = no injection)")
	drainOnly   = flag.Bool("drain", false, "run only the drain policy in -exp straggler (skip the off/rebalance comparison; matches vfrun)")
)

// armDeadline starts the hang watchdog: if the process is still alive
// after d, every goroutine's stack is dumped to stderr and the process
// exits nonzero — a wedged collective becomes a diagnosable artifact
// instead of a silent CI timeout.
func armDeadline(d time.Duration) {
	if d <= 0 {
		return
	}
	time.AfterFunc(d, func() {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		fmt.Fprintf(os.Stderr, "vfbench: -deadline %v exceeded; goroutine dump:\n%s\n", d, buf[:n])
		os.Exit(2)
	})
}

// runtimeFlags is the run settings the flags ask for: -fault, -comm-*,
// -ckpt-*, -recover, -online-recover and the -io-* checkpoint options
// (a fresh ioCfg per call).  The E1 runs take it as it is.
func runtimeFlags() apps.Runtime {
	return apps.Runtime{
		Fault: *faultSpec, CommTimeout: *commTimeout, CommRetries: *commRetries,
		CkptDir: *ckptDir, CkptEvery: *ckptEvery, IO: ioCfg(),
		Recover: *recoverRun, OnlineRecover: *onlineRec,
	}
}

// demoRuntime is runtimeFlags for a demo that checkpoints into dir and
// decides itself whether to inject a fault, resume or recover online.
func demoRuntime(dir string) apps.Runtime {
	rt := runtimeFlags()
	rt.CkptDir, rt.Fault, rt.Recover, rt.OnlineRecover = dir, "", false, false
	return rt
}

// checkpointDir returns -ckpt-dir, or a fresh temporary directory that
// cleanup removes.
func checkpointDir() (dir string, cleanup func()) {
	if *ckptDir != "" {
		return *ckptDir, func() {}
	}
	dir, err := os.MkdirTemp("", "vfckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	return dir, func() { os.RemoveAll(dir) }
}

func main() {
	exp := flag.String("exp", "all", "experiment: adi|pic|smoothing|redist|recover|online-recover|expand|degraded|straggler|all")
	flag.Parse()
	armDeadline(*deadline)
	switch *exp {
	case "adi":
		runADI()
	case "pic":
		runPIC()
	case "smoothing":
		runSmoothing()
	case "redist":
		runRedist()
	case "recover":
		runRecover()
	case "online-recover":
		runOnlineRecover()
	case "expand":
		runExpand()
	case "degraded":
		runDegraded()
	case "straggler":
		runStraggler()
	case "all":
		runSmoothing()
		runADI()
		runPIC()
		runRedist()
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}
}

func tab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// ioCfg assembles the checkpoint parallel-I/O options the flags ask
// for.  Each call builds a fresh FaultFS, so a seeded -io-fault
// schedule restarts deterministically per run, and a fresh metrics
// sink, so per-run I/O counts don't bleed across experiments.
func ioCfg() apps.IOConfig {
	cfg := apps.IOConfig{
		Redundancy: *ioRedund, Keep: *ckptKeep,
		Metrics: &pario.Metrics{},
	}
	if *ioFault != "" {
		plan, err := pario.ParseFaultPlan(*ioFault)
		if err != nil {
			log.Fatal(err)
		}
		cfg.FS = pario.NewFaultFS(pario.OS{}, plan).Rank
		cfg.Retry = msg.RetryPolicy{Timeout: time.Second, Retries: 2}
	}
	return cfg
}

func runADI() {
	fmt.Printf("\n== E1: ADI (paper Figure 1, claim C2) — alpha=%.0e beta=%.0e ==\n", *alpha, *beta)
	fmt.Println("Dynamic confines all communication to DISTRIBUTE; the static distribution")
	fmt.Println("pays pipelined solver communication inside one sweep every iteration.")
	if *elastic > 0 {
		if *ckptDir == "" {
			log.Fatal("-elastic requires -ckpt-dir")
		}
		fmt.Printf("elastic: %d reserved joiner(s) admitted from iteration boundary %d\n", *elastic, *joinAfter)
	}
	w := tab()
	fmt.Fprintln(w, "N\tP\tstrategy\tdata msgs\tbytes\tsweep msgs\tredist msgs\tmodel(ms)\twall(ms)\tmax|err|")
	sizes := []int{128, 256}
	procs := []int{4, 8}
	if *quick {
		sizes, procs = []int{64}, []int{4}
	}
	var tr *trace.Tracer
	for _, n := range sizes {
		for _, p := range procs {
			for _, mode := range []apps.ADIMode{apps.ADIDynamic, apps.ADIStaticCols} {
				rt := runtimeFlags()
				if *elastic > 0 {
					rt = rt.Resilient(150 * time.Millisecond)
					rt.Join, rt.Elastic, rt.JoinAfterIter = *elastic, true, *joinAfter
				} else if *onlineRec {
					rt.Liveness = &machine.LivenessConfig{}
				}
				cfg := apps.ADIConfig{
					NX: n, NY: n, Iters: 4, P: p, Mode: mode,
					Alpha: *alpha, Beta: *beta, Validate: true, Runtime: rt,
				}
				if *traceFile != "" && mode == apps.ADIDynamic && tr == nil {
					tr = trace.New(p + *elastic)
					cfg.Tracer = tr
				}
				res, err := apps.RunADI(cfg)
				if err != nil {
					log.Fatal(err)
				}
				if cfg.Elastic && res.FinalEpoch < 1 {
					log.Fatalf("elastic ADI run finished on epoch %d: the joiner was never admitted", res.FinalEpoch)
				}
				fmt.Fprintf(w, "%d\t%d\t%v\t%d\t%d\t%d\t%d\t%.2f\t%.1f\t%.1e\n",
					n, p, mode, res.Msgs, res.Bytes, res.SweepMsgs, res.RedistMsgs,
					res.ModelTime*1e3, float64(res.Wall.Microseconds())/1e3, res.MaxErr)
			}
		}
	}
	w.Flush()
	if tr != nil {
		if err := tr.WriteJSONFile(*traceFile); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ndynamic ADI trace written to %s\n", *traceFile)
		fmt.Print(tr.Summarize().String())
	}
}

func runPIC() {
	fmt.Printf("\n== E2: PIC (paper Figure 2, claim C3) ==\n")
	fmt.Println("Particles drift rightward; B_BLOCK(BOUNDS) rebalancing every 10 steps keeps")
	fmt.Println("max/avg particles per processor near 1 where static BLOCK degrades.")
	steps := 100
	if *quick {
		steps = 40
	}
	w := tab()
	fmt.Fprintln(w, "NCELL\tP\tstrategy\tmean imb\tpeak imb\tfinal imb\tredists\tredist bytes\tmodel(ms)\twall(ms)")
	for _, reb := range []bool{false, true} {
		res, err := apps.RunPIC(apps.PICConfig{
			NCell: 256, Steps: steps, P: 4, Rebalance: reb, DriftFrac: 0.35,
			Alpha: *alpha, Beta: *beta,
		})
		if err != nil {
			log.Fatal(err)
		}
		name := "static BLOCK"
		if reb {
			name = "B_BLOCK rebalanced"
		}
		fmt.Fprintf(w, "256\t4\t%s\t%.3f\t%.3f\t%.3f\t%d\t%d\t%.2f\t%.1f\n",
			name, res.MeanImbalance, res.PeakImbalance, res.FinalImbalance,
			res.Redistributions, res.RedistBytes, res.ModelTime*1e3,
			float64(res.Wall.Microseconds())/1e3)
		if res.ParticlesStart != res.ParticlesEnd {
			log.Fatalf("particle conservation violated: %v -> %v", res.ParticlesStart, res.ParticlesEnd)
		}
	}
	w.Flush()
	// imbalance trajectory table
	resS, _ := apps.RunPIC(apps.PICConfig{NCell: 256, Steps: steps, P: 4, DriftFrac: 0.35})
	resR, _ := apps.RunPIC(apps.PICConfig{NCell: 256, Steps: steps, P: 4, DriftFrac: 0.35, Rebalance: true})
	fmt.Println("\nload-imbalance trajectory (max/avg particles per processor):")
	w = tab()
	fmt.Fprintln(w, "step\tstatic BLOCK\tB_BLOCK rebalanced")
	for k := 9; k < steps; k += 10 {
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\n", k+1, resS.ImbalanceSeries[k], resR.ImbalanceSeries[k])
	}
	w.Flush()
}

func runSmoothing() {
	fmt.Printf("\n== E3: smoothing (claim C1) — alpha=%.0e beta=%.0e ==\n", *alpha, *beta)
	fmt.Println("Columns: 2 messages of 8N bytes/proc/step.  2-D blocks on qxq: 4 messages")
	fmt.Println("of 8N/q bytes.  The ratio N/p (vs alpha/beta) determines the winner.  Each")
	fmt.Println("distribution exchanges a depth-k halo once every k steps, k chosen by the")
	fmt.Println("same model (apps.SmoothDepth): m/k messages, bytes plus the corners.  The")
	fmt.Println("distribution is chosen on the paper's k = 1 costs, the depth then for it.")
	w := tab()
	fmt.Fprintln(w, "N\tP\tdist\tk\tmsgs/proc/step\tbytes/proc/step\tmodeled cost/step\tchosen")
	sizes := []int{64, 256, 1024, 4096}
	if *quick {
		sizes = []int{64, 256}
	}
	for _, n := range sizes {
		choice := apps.ChooseSmoothingDist(n, 9, *alpha, *beta)
		for _, mode := range []apps.SmoothMode{apps.SmoothColumns, apps.SmoothBlock2D} {
			k := apps.SmoothDepth(mode, n, 9, *alpha, *beta, 0)
			var res apps.SmoothResult
			var err error
			if n <= 1024 {
				// Two whole blocks: the run decides k itself.
				res, err = apps.RunSmoothing(apps.SmoothConfig{N: n, Steps: 2 * k, P: 9, Mode: mode, Alpha: *alpha, Beta: *beta})
				if err != nil {
					log.Fatal(err)
				}
			} else {
				// analytic only at the largest size: an interior processor's
				// m faces of k layers once per k steps, dimension 1's
				// spanning dimension 0's margins when k > 1
				res.Mode, res.Depth = mode, k
				if mode == apps.SmoothColumns {
					res.MsgsPerProcStep, res.BytesPerProcStep = 2/float64(k), float64(2*8*n)
				} else {
					corner := 0
					if k > 1 {
						corner = 2 * k
					}
					res.MsgsPerProcStep = 4 / float64(k)
					res.BytesPerProcStep = float64(8 * (2*n/3 + 2*(n/3+corner)))
				}
			}
			cc, cb := apps.SmoothModelCost(n, 9, k, *alpha, *beta, 0)
			mc := cc
			if mode == apps.SmoothBlock2D {
				mc = cb
			}
			star := ""
			if mode == choice {
				star = "  <- chosen at runtime"
			}
			fmt.Fprintf(w, "%d\t9\t%v\t%d\t%.2f\t%.0f\t%.3e s\t%s\n",
				n, res.Mode, res.Depth, res.MsgsPerProcStep, res.BytesPerProcStep, mc, star)
		}
	}
	w.Flush()
	// crossover point
	prev := apps.ChooseSmoothingDist(4, 9, *alpha, *beta)
	for n := 8; n <= 1<<24; n *= 2 {
		cur := apps.ChooseSmoothingDist(n, 9, *alpha, *beta)
		if cur != prev {
			fmt.Printf("crossover: columns -> 2-D blocks between N=%d and N=%d\n", n/2, n)
			break
		}
		prev = cur
	}
	// The paper: "given the startup overhead and cost per byte of each
	// message of the target machine, the ratio N/p will determine the
	// most appropriate distribution" — sweep machines and P:
	fmt.Println("\ncrossover N (columns -> 2-D blocks) by machine alpha and P (beta fixed);")
	fmt.Println("a distribution's name = no crossover, it wins at every N (2x2: 2 messages either way):")
	w = tab()
	fmt.Fprintln(w, "alpha\\P\t4\t9\t16\t64")
	for _, a := range []float64{1e-5, 1e-4, 1e-3} {
		row := fmt.Sprintf("%.0e", a)
		for _, p := range []int{4, 9, 16, 64} {
			prev := apps.ChooseSmoothingDist(4, p, a, *beta)
			cross := prev.String()
			for n := 8; n <= 1<<26; n *= 2 {
				cur := apps.ChooseSmoothingDist(n, p, a, *beta)
				if cur != prev {
					cross = fmt.Sprintf("%d", n)
					break
				}
				prev = cur
			}
			row += "\t" + cross
		}
		fmt.Fprintln(w, row)
	}
	w.Flush()
}

// runRecover demonstrates the checkpoint/restart + elastic
// shrink-recovery path end to end: a dynamic ADI run with per-iteration
// checkpoints is killed by a permanently silent rank, the heartbeat
// failure detector reports the survivors, and the run is relaunched on
// that smaller machine from the last committed epoch, converging to the
// fault-free answer.
func runRecover() {
	fmt.Printf("\n== E5: checkpoint/restart + shrink-recovery ==\n")
	n, iters, p := 64, 8, 4
	if *quick {
		n, iters = 32, 6
	}
	dir, cleanup := checkpointDir()
	defer cleanup()
	fault := *faultSpec
	if fault == "" {
		fault = "drop,rank=2,after=100" // permanent kill once under way
	}

	fmt.Printf("phase 1: ADI %dx%d, %d iters on %d ranks, ckpt every iter, fault %q\n", n, n, iters, p, fault)
	killed := apps.ADIConfig{
		NX: n, NY: n, Iters: iters, P: p, Mode: apps.ADIDynamic,
		Runtime: demoRuntime(dir).Resilient(150 * time.Millisecond),
	}
	killed.Fault = fault
	res, err := apps.RunADI(killed)
	if err == nil {
		log.Fatal("the injected fault never fired; nothing to recover from")
	}
	fmt.Printf("  run failed as injected: %v\n", err)
	fmt.Printf("  failure detector survivors: %v\n", res.Survivors)
	epoch, man, err := ckpt.LatestEpoch(dir)
	if err != nil || epoch < 0 {
		log.Fatalf("no committed checkpoint to recover from (epoch %d, %v)", epoch, err)
	}
	it, _ := man.MetaInt("iter")
	fmt.Printf("  last committed epoch %d (after iteration %d)\n", epoch, it)

	np := len(res.Survivors)
	if np == 0 {
		np = p - 1
	}
	fmt.Printf("phase 2: relaunch on %d survivors with -recover\n", np)
	rec := apps.ADIConfig{
		NX: n, NY: n, Iters: iters, P: np, Mode: apps.ADIDynamic, Validate: true,
		Runtime: demoRuntime(dir),
	}
	rec.Recover = true
	res2, err := apps.RunADI(rec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  resumed after iteration %d, ran to %d; max|err| vs fault-free serial reference = %.1e\n",
		res2.ResumedIter, iters, res2.MaxErr)
	if res2.MaxErr > 1e-12 {
		log.Fatalf("recovered result deviates from the reference (%.3e > 1e-12)", res2.MaxErr)
	}
	fmt.Println("  recovery matches the fault-free result within 1e-12")
}

// runOnlineRecover demonstrates the membership-epoch path end to end: a
// dynamic ADI run with per-iteration checkpoints loses a rank mid-run,
// the survivors regroup onto epoch 1 *in the same process*, replay the
// last committed checkpoint onto the shrunken view, and finish —
// matching the fault-free serial reference bit for bit.
func runOnlineRecover() {
	fmt.Printf("\n== E6: online failure recovery (survivor regroup, membership epochs) ==\n")
	n, iters, p := 64, 8, 4
	if *quick {
		n, iters = 32, 6
	}
	dir, cleanup := checkpointDir()
	defer cleanup()
	fault := *faultSpec
	if fault == "" {
		fault = "drop,rank=2,after=100" // permanent kill once the first checkpoints committed
	}

	fmt.Printf("ADI %dx%d, %d iters on %d ranks, ckpt every iter, fault %q, online recovery on\n",
		n, n, iters, p, fault)
	cfg := apps.ADIConfig{
		NX: n, NY: n, Iters: iters, P: p, Mode: apps.ADIDynamic, Validate: true,
		Runtime: demoRuntime(dir).Resilient(150 * time.Millisecond),
	}
	cfg.Fault, cfg.OnlineRecover = fault, true
	res, err := apps.RunADI(cfg)
	if err != nil {
		log.Fatalf("online recovery run: %v", err)
	}
	if res.FinalEpoch == 0 {
		log.Fatal("the injected fault never fired; the run completed on epoch 0")
	}
	fmt.Printf("  rank loss detected; survivors %v regrouped onto membership epoch %d\n",
		res.Survivors, res.FinalEpoch)
	fmt.Printf("  replayed checkpointed iteration %d in-process, ran to %d\n", res.ResumedIter, iters)
	fmt.Printf("  max|err| vs fault-free serial reference = %g\n", res.MaxErr)
	if res.MaxErr != 0 {
		log.Fatalf("survivor result deviates from the serial reference (want bit-for-bit 0)")
	}
	fmt.Println("  survivors' result matches the fault-free reference bit for bit")
}

// runExpand demonstrates elastic scale-OUT end to end on all three
// applications: a reserved rank parks in AwaitJoin, the active members
// agree at an iteration boundary, checkpoint, admit it onto membership
// epoch 1, and replay onto the grown view — finishing bit-exact (ADI),
// within float tolerance (smoothing), and particle-conserving (PIC).
// The measured ADI trace then feeds the cost-driven grow policy
// (internal/scale), printing whether the join would have been
// recommended on cost grounds alone.
func runExpand() {
	budget, err := redist.ParseBudget(*redistBgt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== E7: elastic scale-out (rank join, expand-recovery, grow policy) ==\n")
	n, iters, p, join := 32, 8, 3, 1
	if *quick {
		n, iters = 24, 6
	}
	dir, cleanup := checkpointDir()
	defer cleanup()
	grow := func() apps.Runtime {
		rt := demoRuntime(dir).Resilient(150 * time.Millisecond)
		rt.Join, rt.Elastic, rt.JoinAfterIter = join, true, *joinAfter
		return rt
	}

	fmt.Printf("ADI %dx%d, %d iters on %d ranks + %d reserved joiner, ckpt every iter, join polled from boundary %d\n",
		n, n, iters, p, join, *joinAfter)
	tr := trace.New(p + join)
	cfg := apps.ADIConfig{
		NX: n, NY: n, Iters: iters, P: p, Mode: apps.ADIDynamic, Validate: true,
		Alpha: *alpha, Beta: *beta, Runtime: grow(),
	}
	cfg.Tracer, cfg.MemBudget = tr, budget
	cfg.Fault, cfg.OnlineRecover = *faultSpec, *faultSpec != ""
	res, err := apps.RunADI(cfg)
	if err != nil {
		log.Fatalf("elastic ADI run: %v", err)
	}
	if res.FinalEpoch < 1 {
		log.Fatalf("run finished on epoch %d: the joiner was never admitted", res.FinalEpoch)
	}
	fmt.Printf("  joiner admitted; members %v now run membership epoch %d on %d ranks\n",
		res.Survivors, res.FinalEpoch, len(res.Survivors))
	fmt.Printf("  replayed checkpointed iteration %d onto the grown view, ran to %d\n", res.ResumedIter, iters)
	fmt.Printf("  max|err| vs fault-free serial reference = %g\n", res.MaxErr)
	if res.MaxErr != 0 {
		log.Fatal("grown-view result deviates from the serial reference (want bit-for-bit 0)")
	}
	fmt.Println("  grown view's result matches the fault-free reference bit for bit")
	if budget > 0 {
		fmt.Printf("  peak resident wire bytes %d (budget %d)\n", res.PeakWireBytes, budget)
		if res.PeakWireBytes > budget {
			log.Fatalf("expand redistribution broke the -redist-budget: %d > %d", res.PeakWireBytes, budget)
		}
	}

	// The grow policy, fed by the run's own measurements: would the
	// cost model have recommended admitting the joiner?
	sum := tr.Summarize()
	if st, ok := sum.Phase("iterate"); ok && st.Count > 0 {
		ps, _ := scale.FromSummary(sum, "iterate", st.Count, p, *alpha, *beta)
		adv := scale.Recommend(scale.Params{
			NP: p, NPNew: p + join,
			StepsLeft: iters - *joinAfter,
			Step:      ps,
			Redist:    scale.RedistCost(sum),
		})
		fmt.Printf("  grow policy (%d ranks -> %d, %d steps left at the boundary): %s\n",
			p, p+join, iters-*joinAfter, adv)
	}

	fmt.Printf("\nsmoothing %dx%d, %d steps on %d+%d ranks (columns)\n", n, n, iters, p, join)
	sres, err := apps.RunSmoothing(apps.SmoothConfig{
		N: n, Steps: iters, P: p, Mode: apps.SmoothColumns, Validate: true, Runtime: grow(),
	})
	if err != nil {
		log.Fatalf("elastic smoothing run: %v", err)
	}
	if sres.FinalEpoch < 1 {
		log.Fatal("smoothing joiner was never admitted")
	}
	fmt.Printf("  grown to epoch %d; max|err| vs serial reference = %.2e\n", sres.FinalEpoch, sres.MaxErr)
	if sres.MaxErr > 1e-12 {
		log.Fatalf("smoothing deviates after expansion (%.3e > 1e-12)", sres.MaxErr)
	}

	fmt.Printf("\nPIC %d cells, %d steps on %d+%d ranks, B_BLOCK rebalance every 2\n", n, iters, p, join)
	pres, err := apps.RunPIC(apps.PICConfig{
		NCell: n, Steps: iters, P: p, Rebalance: true, RebalanceEvery: 2, InitPerCell: 16,
		Runtime: grow(),
	})
	if err != nil {
		log.Fatalf("elastic PIC run: %v", err)
	}
	if pres.FinalEpoch < 1 {
		log.Fatal("PIC joiner was never admitted")
	}
	fmt.Printf("  grown to epoch %d; particles %v -> %v across the membership change\n",
		pres.FinalEpoch, pres.ParticlesStart, pres.ParticlesEnd)
	if pres.ParticlesEnd != pres.ParticlesStart {
		log.Fatal("particle conservation violated across the expansion")
	}
	fmt.Println("\nall three applications grew onto the admitted rank and finished correct")
}

// runDegraded demonstrates the parallel-I/O path end to end on all three
// applications: every rank writes its own rank file, with redundancy, so
// losing or corrupting any single file of the newest epoch still restores
// bit-exact — the damaged file is reconstructed on the fly and healed on
// disk — and a Scrub pass repairs silent bitrot in place before a second
// failure can stack on top of it.
func runDegraded() {
	fmt.Printf("\n== E8: degraded-mode restore (rank files, redundancy, self-healing) ==\n")
	n, iters, p := 64, 6, 4
	if *quick {
		n, iters = 32, 4
	}
	dir, cleanup := checkpointDir()
	defer cleanup()
	rt := demoRuntime(dir)
	io := &rt.IO
	if io.Redundancy == "" {
		io.Redundancy = pario.RedundancyParity
	}
	met := io.Metrics

	base := apps.ADIConfig{NX: n, NY: n, Iters: iters, P: p, Mode: apps.ADIDynamic, Runtime: rt}
	fmt.Printf("phase 1: ADI %dx%d, %d iters on %d ranks, ckpt every iter, %s redundancy\n",
		n, n, iters, p, io.Redundancy)
	if _, err := apps.RunADI(base); err != nil {
		log.Fatal(err)
	}
	epoch, man, err := ckpt.LatestEpoch(dir)
	if err != nil || epoch < 0 {
		log.Fatalf("no committed checkpoint after phase 1 (epoch %d, %v)", epoch, err)
	}
	victim := man.Files[len(man.Files)/2].Name
	if err := os.Remove(filepath.Join(ckpt.EpochDir(dir, epoch), victim)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  committed epoch %d holds %d rank files; deleted %s\n", epoch, len(man.Files), victim)

	fmt.Printf("phase 2: relaunch with -recover against the damaged epoch\n")
	rec := base
	rec.Recover, rec.Validate = true, true
	res, err := apps.RunADI(rec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  resumed after iteration %d, ran to %d; max|err| vs fault-free serial reference = %g\n",
		res.ResumedIter, iters, res.MaxErr)
	fmt.Printf("  rank files reconstructed from redundancy: %d; files healed on disk: %d\n",
		met.Reconstructions.Load(), met.Repairs.Load())
	if res.MaxErr != 0 {
		log.Fatal("degraded restore deviates from the serial reference (want bit-for-bit 0)")
	}
	fmt.Println("  degraded restore matches the fault-free result bit for bit")

	fmt.Printf("phase 3: flip one byte of the newest epoch (silent bitrot), then scrub\n")
	epoch, man, err = ckpt.LatestEpoch(dir)
	if err != nil || epoch < 0 {
		log.Fatalf("no committed checkpoint after phase 2 (epoch %d, %v)", epoch, err)
	}
	rot := filepath.Join(ckpt.EpochDir(dir, epoch), man.Files[0].Name)
	buf, err := os.ReadFile(rot)
	if err != nil {
		log.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(rot, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	sum, err := ckpt.Scrub(dir, *io)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  scrub: %d epochs, %d files checked, repaired %v, unrecoverable %v\n",
		sum.Epochs, sum.Checked, sum.Repaired, sum.Unrecoverable)
	if len(sum.Repaired) == 0 || len(sum.Unrecoverable) != 0 {
		log.Fatal("scrub failed to repair the injected bitrot in place")
	}
	if e2, _, err := ckpt.LatestEpoch(dir); err != nil || e2 != epoch {
		log.Fatalf("epoch %d no longer verifies after scrub (got %d, %v)", epoch, e2, err)
	}
	fmt.Println("  bitrot healed in place; the epoch verifies clean again")

	sdir := filepath.Join(dir, "smooth")
	fmt.Printf("phase 4: smoothing %dx%d, %d steps on %d ranks, same damage drill\n", n, n, iters, p)
	sbase := apps.SmoothConfig{N: n, Steps: iters, P: p, Mode: apps.SmoothColumns, Runtime: rt}
	sbase.CkptDir = sdir
	if _, err := apps.RunSmoothing(sbase); err != nil {
		log.Fatal(err)
	}
	damageLatest(sdir)
	srec := sbase
	srec.Recover, srec.Validate = true, true
	sres, err := apps.RunSmoothing(srec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  max|err| vs serial reference = %.2e\n", sres.MaxErr)
	if sres.MaxErr > 1e-12 {
		log.Fatalf("smoothing deviates after degraded restore (%.3e > 1e-12)", sres.MaxErr)
	}

	pdir := filepath.Join(dir, "pic")
	fmt.Printf("phase 5: PIC %d cells, %d steps on %d ranks, replica redundancy\n", n, iters, p)
	pbase := apps.PICConfig{
		NCell: n, Steps: iters, P: p, Rebalance: true, RebalanceEvery: 2, InitPerCell: 16,
		Runtime: rt,
	}
	pbase.CkptDir, pbase.IO.Redundancy = pdir, pario.RedundancyReplica
	if _, err := apps.RunPIC(pbase); err != nil {
		log.Fatal(err)
	}
	damageLatest(pdir)
	prec := pbase
	prec.Recover = true
	pres, err := apps.RunPIC(prec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  particles %v -> %v across the degraded restore\n", pres.ParticlesStart, pres.ParticlesEnd)
	if pres.ParticlesEnd != pres.ParticlesStart {
		log.Fatal("particle conservation violated after degraded restore")
	}
	fmt.Println("\nall three applications restored correct state from a damaged epoch")
}

// damageLatest deletes one rank file of dir's newest committed epoch.
func damageLatest(dir string) {
	epoch, man, err := ckpt.LatestEpoch(dir)
	if err != nil || epoch < 0 {
		log.Fatalf("no committed checkpoint in %s (epoch %d, %v)", dir, epoch, err)
	}
	victim := man.Files[len(man.Files)/2].Name
	if err := os.Remove(filepath.Join(ckpt.EpochDir(dir, epoch), victim)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  deleted %s from epoch %d\n", victim, epoch)
}

// runStraggler demonstrates the straggler defense end to end: the same
// dynamic ADI run with -slow-rank's compute sections stretched
// -slow-factor×, three times over — mitigation off (the straggler's
// critical path sets the pace and everyone else waits at the barriers),
// with throughput-weighted B_BLOCK rebalancing (the slow rank keeps
// proportionally less of each dimension), and with voluntary drain
// (checkpoint, scale-in by the straggler, survivors replay onto the
// shrunken membership).  Every run must classify the injected rank
// Degraded from the heartbeat-carried work reports and still match the
// serial reference bit for bit.
func runStraggler() {
	fmt.Printf("\n== E9: straggler defense (health scoring, weighted rebalance, voluntary drain) ==\n")
	n, iters, p := 64, 40, 4
	if *quick {
		n, iters = 48, 30
	}
	hw := *healthWin
	if hw <= 0 {
		hw = 4
	}
	policies := []string{"off", "rebalance", "drain"}
	if *drainOnly {
		policies = []string{"drain"}
	}
	fmt.Printf("ADI %dx%d, %d iters on %d ranks; rank %d's compute stretched %g×\n",
		n, n, iters, p, *slowRank, *slowFactor)
	fmt.Printf("scorer: %d-observation EWMA window, Degraded at 2× the median cost/element, hysteresis 2\n", hw)

	var offHealth []health.RankReport
	walls := map[string]time.Duration{}
	w := tab()
	fmt.Fprintln(w, "policy\tdegraded rank\tmitigation\tepoch\tdrained\twall\tmax|err|")
	for _, policy := range policies {
		cfg := apps.ADIConfig{
			NX: n, NY: n, Iters: iters, P: p, Mode: apps.ADIDynamic, Validate: true,
			Alpha: *alpha, Beta: *beta, Runtime: demoRuntime("").Resilient(250 * time.Millisecond),
		}
		cfg.Liveness = &machine.LivenessConfig{Interval: 5 * time.Millisecond}
		cfg.Straggler = apps.StragglerConfig{
			HealthWindow: hw, DegradedRatio: 2, Hysteresis: 2,
			Policy: policy, CheckAfter: 3,
			SlowRank: *slowRank, SlowFactor: *slowFactor,
		}
		if policy == "drain" {
			dir, cleanup := checkpointDir()
			defer cleanup()
			cfg.CkptDir = dir
		}
		res, err := apps.RunADI(cfg)
		if err != nil {
			log.Fatalf("straggler run (policy %s): %v", policy, err)
		}
		if *slowFactor > 1 && res.DegradedRank != *slowRank {
			log.Fatalf("policy %s: health scorer classified rank %d Degraded, want the injected straggler %d",
				policy, res.DegradedRank, *slowRank)
		}
		if policy == "drain" {
			if res.FinalEpoch < 1 {
				log.Fatalf("drain finished on membership epoch %d: the straggler was never drained", res.FinalEpoch)
			}
			if len(res.Drained) != 1 || res.Drained[0] != *slowRank {
				log.Fatalf("drained ranks %v, want [%d]", res.Drained, *slowRank)
			}
		}
		if res.MaxErr != 0 {
			log.Fatalf("policy %s deviates from the serial reference: max|err| = %g (want bit-for-bit 0)",
				policy, res.MaxErr)
		}
		walls[policy] = res.Wall
		if offHealth == nil {
			offHealth = res.Health
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%v\t%v\t%g\n",
			policy, res.DegradedRank, orDash(res.Mitigation), res.FinalEpoch, res.Drained,
			res.Wall.Round(time.Millisecond), res.MaxErr)
	}
	w.Flush()

	// The scorer's per-rank evidence from the first run: the straggler is
	// the rank whose EWMA cost per element sits far above the median
	// while every other rank tracks it.
	if len(offHealth) > 0 {
		fmt.Println("\nper-rank health report (first run):")
		pw := tab()
		fmt.Fprintln(pw, "rank\tclass\tslowdown\tobservations")
		for _, r := range offHealth {
			ever := ""
			if r.EverDegraded {
				ever = "  (classified Degraded during the run)"
			}
			fmt.Fprintf(pw, "%d\t%s\t%.2f×\t%d%s\n", r.Rank, r.Class, r.Slowdown, r.Observations, ever)
		}
		pw.Flush()
	}
	if !*drainOnly {
		fmt.Printf("\nwall clock: off %v, rebalance %v, drain %v\n",
			walls["off"].Round(time.Millisecond), walls["rebalance"].Round(time.Millisecond),
			walls["drain"].Round(time.Millisecond))
		fmt.Println("every policy's result matches the fault-free serial reference bit for bit")
	}
}

// orDash renders an empty string as "-" in a table cell.
func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func runRedist() {
	budget, err := redist.ParseBudget(*redistBgt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== E4: DISTRIBUTE cost (claim C4) ==\n")
	fmt.Println("Redistribution moves real data and maintains descriptors; the schedule")
	fmt.Println("cache makes phase-alternating patterns cheap after the first round.")
	if budget > 0 {
		fmt.Printf("memory budget: peak resident wire bytes per rank bounded to %d\n", budget)
	}
	w := tab()
	fmt.Fprintln(w, "transition\tN\tP\tbytes/redist\tmsgs/redist\twall/redist\tcache h/m\tpeak wire B")
	type pair struct {
		name     string
		from, to []dist.DimSpec
		n0, n1   int
	}
	n := 1 << 16
	if *quick {
		n = 1 << 12
	}
	pairs := []pair{
		{"BLOCK -> CYCLIC", []dist.DimSpec{dist.BlockDim()}, []dist.DimSpec{dist.CyclicDim(1)}, n, 0},
		{"BLOCK -> CYCLIC(8)", []dist.DimSpec{dist.BlockDim()}, []dist.DimSpec{dist.CyclicDim(8)}, n, 0},
		{"(:,BLOCK) -> (BLOCK,:)", []dist.DimSpec{dist.ElidedDim(), dist.BlockDim()}, []dist.DimSpec{dist.BlockDim(), dist.ElidedDim()}, 256, n / 256},
	}
	for _, pr := range pairs {
		res, err := apps.RunRedistCost(apps.RedistCostConfig{
			N0: pr.n0, N1: pr.n1, P: 4, Rounds: 4, From: pr.from, To: pr.to,
			Alpha: *alpha, Beta: *beta, MemBudget: budget,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s\t%d\t4\t%.0f\t%.0f\t%v\t%d/%d\t%d\n",
			pr.name, n, res.BytesPerRound, res.MsgsPerRound, res.WallPerRound,
			res.CacheHits, res.CacheMisses, res.PeakWireBytes)
		if budget > 0 && res.PeakWireBytes > budget {
			log.Fatalf("measured peak wire bytes %d exceed the -redist-budget %d", res.PeakWireBytes, budget)
		}
		if !res.ValuesPreserved {
			log.Fatal("value preservation violated")
		}
	}
	w.Flush()

	// amortization: iterations needed before the dynamic ADI beats static
	fmt.Println("\nADI amortization (modeled): per-iteration cost, dynamic vs static")
	w = tab()
	fmt.Fprintln(w, "N\tP\tdynamic model(ms)/iter\tstatic model(ms)/iter\twinner")
	sizes := []int{128, 256}
	if *quick {
		sizes = []int{64}
	}
	for _, nn := range sizes {
		dyn, err := apps.RunADI(apps.ADIConfig{NX: nn, NY: nn, Iters: 4, P: 4, Mode: apps.ADIDynamic, Alpha: *alpha, Beta: *beta, ChunkRows: 1})
		if err != nil {
			log.Fatal(err)
		}
		st, err := apps.RunADI(apps.ADIConfig{NX: nn, NY: nn, Iters: 4, P: 4, Mode: apps.ADIStaticCols, Alpha: *alpha, Beta: *beta, ChunkRows: 1})
		if err != nil {
			log.Fatal(err)
		}
		winner := "dynamic"
		if st.ModelTime < dyn.ModelTime {
			winner = "static"
		}
		fmt.Fprintf(w, "%d\t4\t%.3f\t%.3f\t%s\n", nn, dyn.ModelTime*1e3/4, st.ModelTime*1e3/4, winner)
	}
	w.Flush()
}
