package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Sample counts.  They never adapt at run time: a run's length is set by
// S alone, so every count repeats exactly.
const (
	setupDiscard = 5  // zero-step runs before timing starts
	setupSamples = 60 // timed zero-step samples
	timedRounds  = 40 // timed rounds: a p75 has ten samples beyond it
	tracedRounds = 16 // rounds per arm (app, replica, traced replica) of the layer pass
	traceSetups  = 12 // zero-step samples per arm of the layer pass
)

// Every gated timing is the *fastest* of its samples, not their median.
// The reference box is a 2-vCPU microVM whose vCPUs share a core with each
// other and the host with other tenants: interference comes in bursts of
// seconds to minutes and only ever slows a sample down.  Over ten runs on
// ten seeds the median of the 40 rounds moved by 3–36 % (quartile distance
// over median) and their p75 by 4–35 %, the fastest round by 1–8 % (15 % on
// pic_rebalance in a disturbed quarter of an hour).  The median zero-step
// run comes in two modes, 8 and 12 ms on adi_dynamic, in streaks of several
// processes — a zero-step run is mostly first touches of fresh pages, whose
// cost depends on whether the host already backs the pages the guest hands
// out — and moved by 4–47 %; the fastest one by 3–20 %.  The minimum
// estimates what the code costs on the undisturbed machine, and a change
// that makes the code slower or faster moves it like any other quantile.
// Medians and p75 are still printed, for the shape of the noise.

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of its output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info is printed with the metrics but is not part of the result
	// object: numbers worth seeing that are too unsteady to gate on.
	Info map[string]metric `json:"-"`
}

// tally counts checks and failures.
type tally struct{ attempted, failed int }

func (t *tally) check(err error, what string) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", what, err)
	}
	return err == nil
}

// quantile is the linear-interpolation quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func sortedCopy(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// scratchDir makes a fresh directory under bench/out for checkpoints and
// traces: the benchmark writes nowhere else.
func scratchDir(outDir, name string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, name+"-")
}

// timeSetup returns n set-up samples of f(0 steps), each the mean of reps
// back-to-back runs, after discard untimed ones.
func timeSetup(reps, discard, n int, zero func() error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := -discard; i < n; i++ {
		settle()
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			if err := zero(); err != nil {
				return nil, err
			}
		}
		if i >= 0 {
			out = append(out, time.Since(t0).Seconds()/float64(reps))
		}
	}
	return out, nil
}

// measureEndToEnd is a --trace 0 run: the zero-step runs, one warm-up
// round, the timed rounds and, last so that it cannot disturb timings or
// the memory peak, the oracle.
func measureEndToEnd(w workload, p params, outDir string) result {
	var t tally
	res := result{Metrics: map[string]metric{}}
	dir, err := scratchDir(outDir, w.name)
	if err != nil {
		t.check(err, "scratch directory")
		return finish(res, t)
	}
	defer os.RemoveAll(dir)
	ck := filepath.Join(dir, "ckpt")

	var zero runOut
	setups, err := timeSetup(w.setupReps, setupDiscard, setupSamples, func() error {
		var err error
		zero, err = w.run(p, 0, ck)
		return err
	})
	if !t.check(err, "zero-step run") {
		return finish(res, t)
	}

	settle()
	warm, err := w.run(p, p.steps, ck)
	if !t.check(err, "warm-up round") {
		return finish(res, t)
	}

	walls := make([]float64, 0, timedRounds)
	cpus := make([]float64, 0, timedRounds)
	var allocs uint64
	for i := 0; i < timedRounds; i++ {
		settle()
		m0, c0, t0 := mallocs(), cpuSeconds(), time.Now()
		out, err := w.run(p, p.steps, ck)
		wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
		allocs += mallocs() - m0
		if err == nil && !out.same(warm) {
			err = fmt.Errorf("checksum/msgs/bytes %v differ from the warm-up round's %v", out, warm)
		}
		if t.check(err, fmt.Sprintf("round %d", i)) {
			walls, cpus = append(walls, wall), append(cpus, cpu)
		}
	}
	peak := peakRSSMB()
	t.check(w.oracle(p, ck), "oracle")
	if len(walls) == 0 {
		return finish(res, t)
	}

	sw := sortedCopy(walls)
	setup, best := slices.Min(setups), sw[0]
	s := float64(p.steps)
	res.Metrics = map[string]metric{
		"setup_s":         {setup, "s"},
		"run_s_min":       {best, "s"},
		"step_ms":         {(best - setup) / s * 1e3, "ms"},
		"cpu_ms_per_step": {slices.Min(cpus) / s * 1e3, "ms"},
		"msgs_per_step":   {(warm.msgs - zero.msgs) / s, "count"},
		"bytes_per_step":  {(warm.bytes - zero.bytes) / s, "bytes"},
		"model_step_ms":   {(warm.model - zero.model) / s * 1e3, "ms"},
		"allocs_per_step": {float64(allocs) / (float64(len(walls)) * s), "count"},
		"mem_peak_mb":     {peak, "MB"},
	}
	res.Info = map[string]metric{
		"run_s_p50":    {quantile(sw, 0.5), "s"},
		"run_s_p75":    {quantile(sw, 0.75), "s"},
		"setup_s_p50":  {median(setups), "s"},
		"timed_rounds": {float64(len(walls)), "count"},
	}
	return finish(res, t)
}

// settle brings the process to the state a fresh one is in before every
// sample: the heap collected, and every page it no longer uses returned to
// the operating system.  Without the second, whether a sample's arrays land
// on retained or on fresh (page-faulting) memory depends on how far the
// background scavenger got since the last sample: the median zero-step run
// of a process was 1.33–1.47 times its fastest one, and 1.13–1.24 times
// with it.  A program run is one process, so the cold heap is also what a
// user of the program gets.
func settle() {
	runtime.GC() // also frees what goroutines still winding down held on to
	debug.FreeOSMemory()
}

func finish(res result, t tally) result {
	res.Attempted, res.Failed = max(t.attempted, 1), t.failed
	res.Correct = t.failed == 0
	return res
}

// measureLayers is a --trace 1 run: the layer probes, then the workload's
// traced step replica, in one result object.
func measureLayers(w workload, p params, outDir string) result {
	res, rep := measureProbes(outDir), measureReplica(w, p, outDir)
	for name, m := range rep.Metrics {
		res.Metrics[name] = m
	}
	res.Attempted, res.Failed = res.Attempted+rep.Attempted, res.Failed+rep.Failed
	res.Correct = res.Failed == 0
	return res
}

// measureProbes runs the layer probes.  They are the same whatever the
// workload, so the suite runs them once.
func measureProbes(outDir string) result {
	var t tally
	res := result{Metrics: map[string]metric{}}
	dir, err := scratchDir(outDir, "probes")
	if t.check(err, "scratch directory") {
		defer os.RemoveAll(dir)
		t.check(runProbes(res.Metrics, dir), "layer probes")
	}
	return finish(res, t)
}

// measureReplica runs the workload's step replica beside its app.  App
// rounds, replica rounds with spans off and replica rounds with spans on
// alternate, so the three arms see the same machine state; every replica
// round's checksum must equal the app's bit for bit.  Each arm reports its
// fastest round.
func measureReplica(w workload, p params, outDir string) result {
	var t tally
	res := result{Metrics: map[string]metric{}}
	dir, err := scratchDir(outDir, w.name)
	if !t.check(err, "scratch directory") {
		return finish(res, t)
	}
	defer os.RemoveAll(dir)
	ck := filepath.Join(dir, "ckpt")

	// Zero-step time of the app and of the replica, to difference out.
	appSetup, err := timeSetup(w.setupReps, 2, traceSetups, func() error {
		_, err := w.run(p, 0, ck)
		return err
	})
	if !t.check(err, "zero-step run") {
		return finish(res, t)
	}
	repSetup, err := timeSetup(w.setupReps, 2, traceSetups, func() error {
		_, err := w.replica(p, 0, ck, nil)
		return err
	})
	if !t.check(err, "zero-step replica") {
		return finish(res, t)
	}

	rec := newRecorder()
	var app, off, on []float64
	for i := -1; i < tracedRounds; i++ { // round -1 warms up
		settle()
		t0 := time.Now()
		out, err := w.run(p, p.steps, ck)
		dApp := time.Since(t0).Seconds()
		if !t.check(err, fmt.Sprintf("app round %d", i)) {
			continue
		}
		for _, r := range []*recorder{nil, rec} {
			settle()
			t0 := time.Now()
			sum, err := w.replica(p, p.steps, ck, r)
			d := time.Since(t0).Seconds()
			if err == nil && sum != out.checksum {
				err = fmt.Errorf("replica checksum %v, app %v", sum, out.checksum)
			}
			if !t.check(err, fmt.Sprintf("replica round %d (spans on: %v)", i, r != nil)) {
				return finish(res, t) // a failed round may leave spans open
			}
			switch {
			case r != nil:
				// Like every timing here, the layer times are those of
				// the fastest traced round.
				r.endRound(i >= 0 && (len(on) == 0 || d < slices.Min(on)))
				if i >= 0 {
					on = append(on, d)
				}
			case i >= 0:
				off = append(off, d)
			}
		}
		if i >= 0 {
			app = append(app, dApp)
		}
	}
	if len(app) == 0 {
		return finish(res, t)
	}
	t.check(rec.writeTrace(filepath.Join(outDir, "trace-"+w.name+".json"), w.name, p), "trace file")

	s := float64(p.steps)
	appStep := (slices.Min(app) - slices.Min(appSetup)) / s * 1e3
	repStep := (slices.Min(off) - slices.Min(repSetup)) / s * 1e3
	ghostWait := rec.layerMS("darray.ghost_wait", p.steps)
	for _, layer := range []string{"kernels", "compute", "core", "darray", "msg", "ckpt"} {
		busy := rec.layerMS(layer, p.steps)
		if layer == "darray" {
			busy -= ghostWait
		}
		res.Metrics[layer+".busy_ms_per_step"] = metric{busy, "ms"}
	}
	res.Metrics["machine.barrier_wait_ms_per_step"] = metric{rec.layerMS("machine.barrier", p.steps), "ms"}
	res.Metrics["darray.ghost_wait_ms_per_step"] = metric{ghostWait, "ms"}
	res.Metrics["replica.self_ms_per_step"] = metric{rec.layerMS("step", p.steps), "ms"}
	res.Metrics["replica.step_ms"] = metric{repStep, "ms"}
	res.Metrics["apps.step_ms"] = metric{appStep, "ms"}
	res.Metrics["apps.loop_self_ms"] = metric{appStep - repStep, "ms"}
	res.Metrics["trace.overhead_pct"] = metric{(slices.Min(on) - slices.Min(off)) / slices.Min(off) * 100, "%"}
	return finish(res, t)
}
