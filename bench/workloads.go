package main

import (
	"fmt"
	"os"

	"repro/internal/apps"
)

// Every workload runs P = 4 logical processors (the smallest 2×2 processor
// grid the smoothing study needs) under the Hockney model the root
// benchmarks use (iPSC-class: 100 µs start-up, 10 ns/byte).
const (
	nProcs     = 4
	modelAlpha = 1e-4
	modelBeta  = 1e-8
)

// refSeconds is the run length the step counts below were calibrated for:
// 40 timed rounds of about 0.4 s each on the 2-core reference box (0.5 s on
// adi_ckpt_tcp, whose S must be a multiple of 10).  The ISSUE asked for
// 0.75 s rounds (30 s runs); the driver's total cap of 4+22×4 runs in 3420 s
// leaves about 36 s per run including set-up, warm-up and the oracle, and
// the box slows down by half for minutes at a time, so the step counts were
// shrunk until a run takes about 20 s, and the round count kept.
const refSeconds = 16

// params are the generated inputs of one benchmark run: everything a
// workload's program sees.  They derive from the seed and the run length
// alone, so the same arguments always give the same inputs and counts.
type params struct {
	edge  int     // grid edge (ADI and smoothing)
	ncell int     // PIC cells
	drift float64 // PIC drift fraction
	steps int     // S: steps per timed round
}

// runOut is what one program run reports, reduced to the fields the
// benchmark compares and differences.
type runOut struct {
	checksum float64
	msgs     float64 // data messages (smoothing: max per processor per step × steps)
	bytes    float64
	model    float64 // Hockney makespan, seconds
}

func (a runOut) same(b runOut) bool {
	return a.checksum == b.checksum && a.msgs == b.msgs && a.bytes == b.bytes
}

// workload is one benchmark workload: a public apps.Run* call with a fixed
// configuration, its zero-step twin, an oracle and a step replica.  Why each
// was chosen is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	// refSteps is S at refSeconds; quantum is the multiple S is rounded
	// down to (the checkpoint workload needs both halves to end on a
	// checkpoint boundary).
	refSteps, quantum int
	// setupReps is how many back-to-back zero-step runs make one set-up
	// sample (the sample is their mean): a 0.3 ms set-up timed alone is
	// mostly timer and scheduler noise.
	setupReps int
	// run executes one program run of the given step count; dir is a
	// scratch directory for workloads that checkpoint.
	run func(p params, steps int, dir string) (runOut, error)
	// oracle is one untimed validated run against an independent reference.
	oracle func(p params, dir string) error
	// replica is the same step written against the layer APIs.
	replica func(p params, steps int, dir string, rec *recorder) (float64, error)
}

var workloads = []workload{
	{
		name:     "adi_dynamic",
		refSteps: 16, quantum: 1, setupReps: 1,
		run:     runADI,
		oracle:  oracleADI,
		replica: replicaADI,
	},
	{
		name:     "smooth_halo",
		refSteps: 80, quantum: 1, setupReps: 1,
		run:     runSmooth,
		oracle:  oracleSmooth,
		replica: replicaSmooth,
	},
	{
		name:     "pic_rebalance",
		refSteps: 1000, quantum: 1, setupReps: 32,
		run:     runPIC,
		oracle:  oraclePIC,
		replica: replicaPIC,
	},
	{
		name:     "adi_ckpt_tcp",
		refSteps: 20, quantum: 10, setupReps: 1,
		run:     runCkpt,
		oracle:  oracleCkpt,
		replica: replicaCkpt,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// makeParams generates a run's inputs.  Seed 0 gives the canonical sizes;
// other seeds jitter the sizes by k = seed mod 5.  The ISSUE proposed
// +16·k on the grid edge; that moves the work per step by up to 13 %, far
// outside the 5 % bounds the same metrics carry across seeds, so the jitter
// is kept to a few rows: enough that no size is a constant the program
// could recognise, small enough that every seed measures the same work.
// S follows --seconds linearly.
func makeParams(w workload, seed int64, seconds int) params {
	k := int(((seed % 5) + 5) % 5)
	p := params{ncell: 512 + k, drift: 0.1 + 0.001*float64(k)}
	switch w.name {
	case "smooth_halo":
		p.edge = 2048 + 2*k
	case "adi_ckpt_tcp":
		p.edge = 768 + k
	default:
		p.edge = 1024 + k
	}
	s := w.refSteps * seconds / refSeconds / w.quantum * w.quantum
	p.steps = max(s, w.quantum)
	return p
}

func adiConfig(p params, steps int) apps.ADIConfig {
	return apps.ADIConfig{
		NX: p.edge, NY: p.edge, Iters: steps, P: nProcs, Mode: apps.ADIDynamic,
		Alpha: modelAlpha, Beta: modelBeta,
	}
}

func runADI(p params, steps int, _ string) (runOut, error) {
	r, err := apps.RunADI(adiConfig(p, steps))
	return runOut{r.Checksum, float64(r.Msgs), float64(r.Bytes), r.ModelTime}, err
}

func oracleADI(p params, _ string) error {
	cfg := adiConfig(p, p.steps)
	cfg.Validate = true
	r, err := apps.RunADI(cfg)
	if err != nil {
		return err
	}
	if r.MaxErr != 0 {
		return fmt.Errorf("ADI differs from the serial reference: MaxErr = %g", r.MaxErr)
	}
	return nil
}

func smoothConfig(p params, steps int) apps.SmoothConfig {
	return apps.SmoothConfig{
		N: p.edge, Steps: steps, P: nProcs, Mode: apps.SmoothBlock2D, Overlap: true,
		Alpha: modelAlpha, Beta: modelBeta,
	}
}

// runSmooth reports traffic as SmoothResult does — the maximum per
// processor — scaled back to a whole run so it differences like the others.
func runSmooth(p params, steps int, _ string) (runOut, error) {
	r, err := apps.RunSmoothing(smoothConfig(p, steps))
	s := float64(steps)
	return runOut{r.Checksum, r.MsgsPerProcStep * s, r.BytesPerProcStep * s, r.ModelTime}, err
}

func oracleSmooth(p params, _ string) error {
	cfg := smoothConfig(p, p.steps)
	cfg.Validate = true
	r, err := apps.RunSmoothing(cfg)
	if err != nil {
		return err
	}
	if r.MaxErr != 0 {
		return fmt.Errorf("smoothing differs from the serial reference: MaxErr = %g", r.MaxErr)
	}
	return nil
}

// PIC constants of the workload (the seed moves only NCell and DriftFrac).
// The ISSUE started from DriftFrac 0.3 and threshold 1.05.  At 0.3 the last
// cell holds a quarter of all particles after 430 steps, from where on no
// B_BLOCK can balance the load and every step is slower than the one before.
// Under any threshold just above the imbalance ten steps of drift build up,
// how often a run rebalances is chaotic in the inputs: at 1.02 it was 26 to
// 34 times in 1000 steps over NCell 512..516, and bytes_per_step moved by
// 10 % with it.  At 1.0 every check rebalances — one DISTRIBUTE per ten
// steps, on new bounds each time — so the counts are the same on every seed
// to 0.2 % and the step time is stationary.
const (
	picInitPerCell = 512
	picEvery       = 10
	picThreshold   = 1.0
	picWork        = 1
)

func picConfig(p params, steps int) apps.PICConfig {
	return apps.PICConfig{
		NCell: p.ncell, Steps: steps, P: nProcs, Rebalance: true,
		RebalanceEvery: picEvery, RebalanceThreshold: picThreshold,
		DriftFrac: p.drift, InitPerCell: picInitPerCell, WorkPerParticle: picWork,
		Alpha: modelAlpha, Beta: modelBeta,
	}
}

func runPIC(p params, steps int, _ string) (runOut, error) {
	r, err := apps.RunPIC(picConfig(p, steps))
	return runOut{r.FieldChecksum, float64(r.Msgs), float64(r.Bytes), r.ModelTime}, err
}

// oraclePIC checks particle conservation and compares the field checksum
// and the number of redistributions with a serial model of Figure 2 that
// shares no code with the program (picSerial).
func oraclePIC(p params, _ string) error {
	r, err := apps.RunPIC(picConfig(p, p.steps))
	if err != nil {
		return err
	}
	if r.ParticlesStart != r.ParticlesEnd {
		return fmt.Errorf("PIC lost particles: %g -> %g", r.ParticlesStart, r.ParticlesEnd)
	}
	sum, redists := picSerial(p, p.steps)
	if r.FieldChecksum != sum {
		return fmt.Errorf("PIC field checksum %v, serial model %v", r.FieldChecksum, sum)
	}
	if r.Redistributions != redists {
		return fmt.Errorf("PIC redistributed %d times, serial model %d", r.Redistributions, redists)
	}
	return nil
}

// Checkpoint workload: both halves of a round share this configuration.
const ckptEvery = 5

func ckptConfig(p params, iters int, dir string) apps.ADIConfig {
	cfg := adiConfig(p, iters)
	cfg.UseTCP = true
	cfg.Integrity = true
	cfg.CkptDir = dir
	cfg.CkptEvery = ckptEvery
	cfg.IO = apps.IOConfig{Keep: 2}
	return cfg
}

// runCkpt is one round of adi_ckpt_tcp: iterations 0..S/2−1 with
// checkpoints, then a second program run that restores the last epoch and
// finishes S/2..S−1.  A zero-step round is the two machine builds, fills
// and reductions without the loop (nothing is written, so the second half
// starts fresh as well).
func runCkpt(p params, steps int, dir string) (runOut, error) {
	if err := resetDir(dir); err != nil {
		return runOut{}, err
	}
	a, err := apps.RunADI(ckptConfig(p, steps/2, dir))
	if err != nil {
		return runOut{}, err
	}
	cfg := ckptConfig(p, steps, dir)
	cfg.Recover = steps > 0
	b, err := apps.RunADI(cfg)
	return runOut{b.Checksum, float64(a.Msgs + b.Msgs), float64(a.Bytes + b.Bytes), a.ModelTime + b.ModelTime}, err
}

func oracleCkpt(p params, dir string) error {
	if err := resetDir(dir); err != nil {
		return err
	}
	s := p.steps
	a, err := apps.RunADI(ckptConfig(p, s/2, dir))
	if err != nil {
		return err
	}
	cfg := ckptConfig(p, s, dir)
	cfg.Recover = true
	cfg.Validate = true
	b, err := apps.RunADI(cfg)
	if err != nil {
		return err
	}
	switch {
	case b.ResumedIter != s/2-1:
		return fmt.Errorf("resumed after iteration %d, want %d", b.ResumedIter, s/2-1)
	case a.Epochs != s/2/ckptEvery || b.Epochs != s/ckptEvery-s/2/ckptEvery:
		return fmt.Errorf("committed %d+%d epochs, want %d+%d", a.Epochs, b.Epochs, s/2/ckptEvery, s/ckptEvery-s/2/ckptEvery)
	case b.MaxErr != 0:
		return fmt.Errorf("ADI across the restart differs from the serial reference: MaxErr = %g", b.MaxErr)
	}
	return nil
}

// resetDir empties the checkpoint directory so every round writes the same
// epochs onto the same (empty) directory.
func resetDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
