// Command vfbench prints the paper's evaluation as tables E1–E4 (see
// DESIGN.md's per-experiment index; EXPERIMENTS.md records the results):
//
//	vfbench -exp adi        E1: Figure 1 / claim C2
//	vfbench -exp pic        E2: Figure 2 / claim C3
//	vfbench -exp smoothing  E3: §4 claim C1 (N/p crossover)
//	vfbench -exp redist     E4: §4 claim C4 (DISTRIBUTE cost, amortization)
//	vfbench -exp all        all four (the default)
//
// Fault injection, checkpoints, recovery, elastic join and straggler
// defense are checked by the tier-1 tests of internal/apps and driven by
// hand through cmd/vfrun.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/apps"
	"repro/internal/dist"
	"repro/internal/redist"
	"repro/internal/trace"
)

var (
	alpha     = flag.Float64("alpha", 1e-4, "modeled message startup (s)")
	beta      = flag.Float64("beta", 1e-8, "modeled per-byte cost (s)")
	quick     = flag.Bool("quick", false, "smaller sizes (for smoke runs)")
	traceFile = flag.String("trace", "", "trace the first dynamic ADI run to FILE (Chrome trace_event JSON) and print its per-phase summary")
	redistBgt = flag.String("redist-budget", "", "bound each redistribution's peak resident wire bytes per rank in -exp redist, e.g. 64K, 2M (empty/0 = unbounded)")
)

func main() {
	exp := flag.String("exp", "all", "experiment: adi|pic|smoothing|redist|all")
	flag.Parse()
	switch *exp {
	case "adi":
		runADI()
	case "pic":
		runPIC()
	case "smoothing":
		runSmoothing()
	case "redist":
		runRedist()
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

func runADI() {
	fmt.Printf("\n== E1: ADI (paper Figure 1, claim C2) — alpha=%.0e beta=%.0e ==\n", *alpha, *beta)
	fmt.Println("Dynamic confines all communication to DISTRIBUTE; the static distribution")
	fmt.Println("pays pipelined solver communication inside one sweep every iteration.")
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
				cfg := apps.ADIConfig{
					NX: n, NY: n, Iters: 4, P: p, Mode: mode,
					Alpha: *alpha, Beta: *beta, Validate: true,
				}
				if *traceFile != "" && mode == apps.ADIDynamic && tr == nil {
					tr = trace.New(p)
					cfg.Tracer = tr
				}
				res, err := apps.RunADI(cfg)
				if err != nil {
					log.Fatal(err)
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
	fmt.Fprintln(w, "NCELL\tP\tstrategy\tmean imb\tpeak imb\tfinal imb\tredists\tredist bytes\tmsgs/step\tmodel(ms)\twall(ms)")
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
		fmt.Fprintf(w, "256\t4\t%s\t%.3f\t%.3f\t%.3f\t%d\t%d\t%.2f\t%.2f\t%.1f\n",
			name, res.MeanImbalance, res.PeakImbalance, res.FinalImbalance,
			res.Redistributions, res.RedistBytes, float64(res.Msgs)/float64(steps), res.ModelTime*1e3,
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
			k := apps.SmoothDepth(mode, n, 9, *alpha, *beta)
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
			cc, cb := apps.SmoothModelCost(n, 9, k, *alpha, *beta)
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
