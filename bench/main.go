// Command bench is the repository's benchmark: four paper workloads, one
// result schema, layer probes and a traced step replica per workload.
//
//	go run ./bench                                   every workload, then the layer pass
//	go run ./bench --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//	go run ./bench -agree                            the suite twice; fails unless the two agree
//	go run ./bench -linearity                        every workload at S and S/2
//
// See README.md in this directory for the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runTimeout is the hard limit of one workload run; the driver allows 180 s.
const runTimeout = 170 * time.Second

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload and print its result object")
		seed      = flag.Int64("seed", 0, "input seed: 0 is the canonical sizes, other seeds jitter them")
		seconds   = flag.Int("seconds", refSeconds, "run length the step counts are scaled to")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: layer probes and the traced step replica")
		outDir    = flag.String("out", filepath.Join("bench", "out"), "directory for the result, traces and checkpoints")
		agree     = flag.Bool("agree", false, "run the suite twice and fail unless the two agree within the bounds")
		linearity = flag.Bool("linearity", false, "rerun every workload at half the --seconds and fail unless loop time halves")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	if *name != "" {
		os.Exit(runOne(*name, *seed, *seconds, *trace, *outDir))
	}
	s := suite{seed: *seed, seconds: *seconds, outDir: *outDir}
	var err error
	switch {
	case *agree:
		err = s.agree()
	case *linearity:
		err = s.linearity()
	default:
		err = s.full()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: FAIL:", err)
		os.Exit(1)
	}
}

// runOne performs one workload run in this process and prints its metrics
// and, as the last line, its result object.
func runOne(name string, seed int64, seconds int, trace int, outDir string) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	// A run that hangs must still end: report it as failed and leave.
	time.AfterFunc(runTimeout, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded %v\n", name, runTimeout)
		os.Exit(3)
	})
	p := makeParams(w, seed, seconds)
	var res result
	if trace == 1 {
		res = measureLayers(w, p, outDir)
	} else {
		res = measureEndToEnd(w, p, outDir)
	}
	printMetrics(name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(workload string, res result) {
	for _, mm := range []map[string]metric{res.Metrics, res.Info} {
		names := make([]string, 0, len(mm))
		for n := range mm {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s/%s %.6g %s\n", workload, n, mm[n].Value, mm[n].Unit)
		}
	}
	fmt.Printf("%s/fail_ratio %g ratio (%d failed of %d attempted)\n",
		workload, float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
}

// suite runs every workload's end-to-end run in a re-exec'd subprocess, so
// peak memory and allocation counts are per workload.
type suite struct {
	seed    int64
	seconds int
	outDir  string
}

// child runs one workload with tracing off in a subprocess under the hard
// timeout.  A run that times out, crashes or prints no result object
// counts as one failed attempt.
func (s suite) child(workload string) result {
	failed := result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return failed
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout+5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"--workload", workload, "--seed", fmt.Sprint(s.seed), "--seconds", fmt.Sprint(s.seconds),
		"--trace", "0", "--out", s.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil || res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "bench: %s: no result: %v\n", workload, errors.Join(err, jerr))
		return failed
	}
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	if err != nil && res.Failed == 0 {
		res.Failed, res.Correct = 1, false
	}
	return res
}

// pass runs every workload once with tracing off.
func (s suite) pass() (map[string]result, error) {
	out := map[string]result{}
	var failed []string
	for _, w := range workloads {
		out[w.name] = s.child(w.name)
		if !out[w.name].Correct {
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return out, fmt.Errorf("failures on %s", strings.Join(failed, ", "))
	}
	return out, nil
}

// full is the whole suite: every workload with tracing off, then one layer
// pass — the layer probes once, since they do not depend on the workload,
// and each workload's traced step replica — and the result file.
func (s suite) full() error {
	env := readEnvironment(s.outDir)
	endToEnd, err := s.pass()

	// The layer pass runs in this process; like a workload's subprocess it
	// may take runTimeout per part and is given up on when it hangs.
	watchdog := time.AfterFunc(runTimeout, func() {
		fmt.Fprintf(os.Stderr, "bench: the layer pass exceeded %v\n", runTimeout)
		os.Exit(3)
	})
	defer watchdog.Stop()
	probes := measureProbes(s.outDir)
	printMetrics("layers", probes)
	bad := !probes.Correct
	replicas := map[string]result{}
	for _, w := range workloads {
		watchdog.Reset(runTimeout)
		r := measureReplica(w, makeParams(w, s.seed, s.seconds), s.outDir)
		printMetrics(w.name, r)
		replicas[w.name] = r
		bad = bad || !r.Correct
	}
	if bad {
		err = errors.Join(err, errors.New("failures in the layer pass"))
	}

	doc := struct {
		Environment environment       `json:"environment"`
		Seed        int64             `json:"seed"`
		Seconds     int               `json:"seconds"`
		Samples     map[string]int    `json:"samples"`
		EndToEnd    map[string]result `json:"end_to_end"`
		LayerProbes result            `json:"layer_probes"`
		StepReplica map[string]result `json:"step_replica"`
	}{env, s.seed, s.seconds, map[string]int{
		"setup_zero_step_runs": setupSamples, "timed_rounds": timedRounds, "traced_rounds_per_arm": tracedRounds,
	}, endToEnd, probes, replicas}
	b, jerr := json.MarshalIndent(doc, "", "  ")
	if jerr == nil {
		if jerr = os.MkdirAll(s.outDir, 0o755); jerr == nil {
			jerr = os.WriteFile(filepath.Join(s.outDir, "result.json"), append(b, '\n'), 0o644)
		}
	}
	return errors.Join(err, jerr)
}

// bounds reads each end-to-end metric's regression bound from
// BENCHMARK.json, the one place they are declared.
func bounds() (map[string]float64, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// exactMetrics are counts made by the program: they repeat exactly.
var exactMetrics = map[string]bool{"msgs_per_step": true, "bytes_per_step": true, "model_step_ms": true}

func (s suite) agree() error {
	bound, err := bounds()
	if err != nil {
		return err
	}
	first, err := s.pass()
	if err != nil {
		return err
	}
	second, err := s.pass()
	if err != nil {
		return err
	}
	var bad []string
	for _, w := range workloads {
		a, b := first[w.name].Metrics, second[w.name].Metrics
		for name, limit := range bound {
			x, y := a[name].Value, b[name].Value
			diff := math.Abs(y-x) / math.Abs(x)
			verdict := "ok"
			if exactMetrics[name] && x != y || diff > limit {
				verdict = "DISAGREE"
				bad = append(bad, w.name+"/"+name)
			}
			fmt.Printf("agree %s/%s %.6g vs %.6g (%.2f%%, bound %.1f%%) %s\n", w.name, name, x, y, diff*100, limit*100, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("two runs of the same code disagree on %s", strings.Join(bad, ", "))
	}
	return nil
}

// linearity runs every workload at --seconds and at half of it, which
// halves S, and fails unless the loop time follows.
func (s suite) linearity() error {
	if s.seconds < 2 {
		return errors.New("-linearity needs --seconds of at least 2")
	}
	half := suite{s.seed, s.seconds / 2, s.outDir}
	whole, err := s.pass()
	if err != nil {
		return err
	}
	halved, err := half.pass()
	if err != nil {
		return err
	}
	var bad []string
	for _, w := range workloads {
		// Measured loop time (step_ms × S) must scale like the modelled loop
		// time.  That is the ratio of the step counts to within 0.02: ADI's
		// first iteration has one DISTRIBUTE fewer, and PIC's pile-up at
		// the reflecting end grows with the run, which the model knows.
		sa := float64(makeParams(w, s.seed, s.seconds).steps)
		sb := float64(makeParams(w, half.seed, half.seconds).steps)
		a, b := whole[w.name].Metrics, halved[w.name].Metrics
		ratio := b["step_ms"].Value * sb / (a["step_ms"].Value * sa)
		want := b["model_step_ms"].Value * sb / (a["model_step_ms"].Value * sa)
		verdict := "ok"
		if math.Abs(ratio-want) > 0.05 {
			verdict = "NOT LINEAR"
			bad = append(bad, w.name)
		}
		fmt.Printf("linearity %s loop time ratio %.3f, modelled %.3f, steps %.3f %s\n", w.name, ratio, want, sb/sa, verdict)
	}
	if len(bad) > 0 {
		return fmt.Errorf("step time is not steady state on %s", strings.Join(bad, ", "))
	}
	return nil
}
