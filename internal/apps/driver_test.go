package apps

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
)

// toy is the smallest application the step loop can drive: one DYNAMIC
// BLOCK array whose every element goes x → 2x + it + 1 in step it.  The
// update does not commute, so the final value is right only if every
// iteration was applied exactly once and in order, however many epochs,
// restores and replays the run went through.
type toy struct {
	n     int
	steps []int // iterations view rank 0 stepped through, replays included
	// failBarrierAt, when >= 0, arms the (disarmed) fault plan on rank 1
	// just before that iteration's barrier, so the barrier is the first
	// operation to fail.
	failBarrierAt int
	pastBarrier   bool // rank 1 got past the barrier that had to fail
	maxErr        float64
}

func (ty *toy) want(iters int) []float64 {
	x := 0.0
	for it := 0; it < iters; it++ {
		x = 2*x + float64(it) + 1
	}
	ref := make([]float64, ty.n)
	for i := range ref {
		ref[i] = x
	}
	return ref
}

func (ty *toy) run(rc runConfig) (Outcome, error) {
	var out Outcome
	ref := ty.want(rc.Iters)
	sc := rc.Straggler
	err := run(rc, &out, func(ctx *machine.Ctx) app {
		ft, _ := ctx.Machine().Transport().(*msg.FaultTransport)
		if ty.failBarrierAt >= 0 {
			ft.Disarm(ctx.PhysRank())
		}
		var v *core.Array
		var it int
		sw := &stopwatch{ctx: ctx, sc: sc}
		update := func() {
			v.Local(ctx).ForEachOwned(func(_ index.Point, x *float64) { *x = 2**x + float64(it) + 1 })
			time.Sleep(200 * time.Microsecond) // something for the health scorer to time
		}
		return app{
			declare: func(eng *core.Engine) (err error) {
				v, err = eng.Declare(ctx, core.Decl{Name: "V", Domain: index.Dim(ty.n), Dynamic: true,
					Init: &core.DistSpec{Type: dist.NewType(dist.BlockDim())}})
				return err
			},
			fill:  func() error { v.Fill(ctx, 0); return nil },
			begin: func(int, map[string]string) error { return nil },
			step: func(i int) error {
				it = i
				if ctx.Rank() == 0 {
					ty.steps = append(ty.steps, it)
				}
				sw.start()
				update()
				sw.stop()
				sw.done(localElems(ctx, v))
				if it == ty.failBarrierAt && ctx.Rank() == 1 {
					ft.Arm(1)
				}
				err := ctx.Barrier()
				if err == nil && it == ty.failBarrierAt && ctx.Rank() == 1 {
					ty.pastBarrier = true
				}
				return err
			},
			end: func() error {
				_, maxErr, err := checksum(ctx, v, ref)
				if ctx.Rank() == 0 {
					ty.maxErr = maxErr
				}
				return err
			},
		}
	})
	return out, err
}

// TestStepLoop is the conformance table of the one resilient step loop:
// each path through the cycle — plain, checkpoint cadence, restore,
// elastic grow, straggler drain, online kill — must apply every
// iteration exactly once and in order, and report what it did.
func TestStepLoop(t *testing.T) {
	const iters = 12
	elastic := func(rc *runConfig) {
		rc.CommTimeout, rc.CommRetries = 150*time.Millisecond, 2
	}
	for _, tc := range []struct {
		name       string
		conf       func(rc *runConfig)
		prior      int // iterations a checkpointing run completes first
		kill       int // rank 2 falls silent from iteration kill on (0: never)
		epochs     int // want Outcome.Epochs (-1: at least one)
		resumed    int // want Outcome.ResumedIter (-2: any >= 0)
		transition bool
		check      func(t *testing.T, out Outcome)
	}{
		{name: "plain", conf: func(rc *runConfig) {}, resumed: -1},
		{name: "ckpt-every-3", conf: func(rc *runConfig) { rc.CkptEvery = 3 }, epochs: iters / 3, resumed: -1},
		{name: "recover", prior: 7, conf: func(rc *runConfig) { rc.CkptEvery, rc.Recover = 3, true }, epochs: 2, resumed: 5},
		{name: "grow", conf: func(rc *runConfig) {
			elastic(rc)
			rc.P, rc.Join, rc.JoinAfterIter = 3, 1, 4
		}, epochs: -1, resumed: -2, transition: true},
		{name: "grow-tcp", conf: func(rc *runConfig) {
			elastic(rc)
			rc.P, rc.Join, rc.JoinAfterIter, rc.UseTCP = 3, 1, 4, true
		}, epochs: -1, resumed: -2, transition: true},
		{name: "drain", conf: func(rc *runConfig) {
			elastic(rc)
			rc.Iters, rc.CommTimeout, rc.Straggler = 40, 250*time.Millisecond, stragglerCfg("drain")
		}, epochs: -1, resumed: -2, transition: true, check: func(t *testing.T, out Outcome) {
			if out.Mitigation != "drain" || len(out.Drained) != 1 || len(out.Health) != 4 {
				t.Fatalf("Mitigation %q, Drained %v, %d health rows; want a drain of one rank and 4 rows",
					out.Mitigation, out.Drained, len(out.Health))
			}
		}},
		{name: "kill", conf: func(rc *runConfig) {
			elastic(rc)
			rc.OnlineRecover = true
		}, kill: 6, epochs: -1, resumed: -2, transition: true, check: func(t *testing.T, out Outcome) {
			if len(out.Survivors) != 3 {
				t.Fatalf("survivors = %v, want 3 of 4", out.Survivors)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc := runConfig{P: 4, Iters: iters, Runtime: Runtime{CkptDir: t.TempDir(), CkptEvery: 1}}
			if tc.name == "plain" {
				rc.CkptDir = ""
			}
			tc.conf(&rc)
			if tc.kill > 0 {
				after := killAfter(t, 2, tc.kill, 0, func() error {
					dry := rc
					dry.CkptDir = t.TempDir()
					dry.Integrity = true // offers framed, as under the fault plan
					_, err := (&toy{n: 64, failBarrierAt: -1}).run(dry)
					return err
				})
				rc.Fault = fmt.Sprintf("drop,rank=2,after=%d", after)
			}
			if tc.prior > 0 {
				first := rc
				first.Iters, first.Recover = tc.prior, false
				if _, err := (&toy{n: 64, failBarrierAt: -1}).run(first); err != nil {
					t.Fatalf("prior run: %v", err)
				}
			}
			ty := &toy{n: 64, failBarrierAt: -1}
			out, err := ty.run(rc)
			if err != nil {
				t.Fatal(err)
			}
			if ty.maxErr != 0 {
				t.Fatalf("final grid off by %g: an iteration was skipped, repeated or reordered (stepped %v)", ty.maxErr, ty.steps)
			}
			if tc.epochs >= 0 && out.Epochs != tc.epochs || tc.epochs < 0 && out.Epochs < 1 {
				t.Fatalf("Epochs = %d, want %d", out.Epochs, tc.epochs)
			}
			if tc.resumed >= -1 && out.ResumedIter != tc.resumed || tc.resumed == -2 && out.ResumedIter < 0 {
				t.Fatalf("ResumedIter = %d, want %d", out.ResumedIter, tc.resumed)
			}
			if (out.FinalEpoch > 0) != tc.transition {
				t.Fatalf("FinalEpoch = %d, want a transition: %v", out.FinalEpoch, tc.transition)
			}
			// The last epoch stepped from the iteration after the one it
			// resumed to the end, consecutively.
			tail := ty.steps[len(ty.steps)-(rc.Iters-1-out.ResumedIter):]
			for i, it := range tail {
				if it != out.ResumedIter+1+i {
					t.Fatalf("last epoch stepped %v, want %d..%d", tail, out.ResumedIter+1, rc.Iters-1)
				}
			}
			if tc.check != nil {
				tc.check(t, out)
			}
		})
	}
}

// TestStepLoopBarrierError: the step loop returns the error of a
// barrier that fails, so the step aborts there, naming the rank.
func TestStepLoopBarrierError(t *testing.T) {
	ty := &toy{n: 64, failBarrierAt: 2}
	_, err := ty.run(runConfig{P: 4, Iters: 6, Runtime: Runtime{Fault: "senderr,rank=1"}})
	if err == nil || !strings.Contains(err.Error(), "barrier") || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("err = %v, want the failed barrier at rank 1", err)
	}
	if ty.pastBarrier || len(ty.steps) != 3 {
		t.Fatalf("step 2 carried on past its failed barrier (past=%v, stepped %v)", ty.pastBarrier, ty.steps)
	}
}

// TestDeclareErrorIsReturned: a transport error during a declaration —
// here every send of rank 1 fails, so the first collective of the run
// does — comes back as an error of the run, not as a rank panic.
func TestDeclareErrorIsReturned(t *testing.T) {
	const fault = "senderr,rank=1"
	_, adiErr := RunADI(ADIConfig{NX: 16, NY: 16, Iters: 2, P: 4, Runtime: Runtime{Fault: fault}})
	_, smoothErr := RunSmoothing(SmoothConfig{N: 16, Steps: 2, P: 4, Runtime: Runtime{Fault: fault}})
	_, picErr := RunPIC(PICConfig{NCell: 16, Steps: 2, P: 4, Runtime: Runtime{Fault: fault}})
	for app, err := range map[string]error{"ADI": adiErr, "smoothing": smoothErr, "PIC": picErr} {
		if err == nil || !strings.Contains(err.Error(), "injected") || strings.Contains(err.Error(), "panicked") {
			t.Errorf("%s: err = %v, want the injected send error, returned", app, err)
		}
	}
}

// TestAllAppsReportHealth: the health report comes from the step loop,
// so every app has it, not only ADI.
func TestAllAppsReportHealth(t *testing.T) {
	sc := stragglerCfg("off")
	sc.SlowFactor = 0
	to := 250 * time.Millisecond
	adi, err := RunADI(ADIConfig{NX: 16, NY: 16, Iters: 4, P: 4, Runtime: Runtime{CommTimeout: to, Straggler: sc}})
	if err != nil {
		t.Fatal(err)
	}
	smooth, err := RunSmoothing(SmoothConfig{N: 16, Steps: 4, P: 4, Runtime: Runtime{CommTimeout: to, Straggler: sc}})
	if err != nil {
		t.Fatal(err)
	}
	pic, err := RunPIC(PICConfig{NCell: 16, Steps: 4, P: 4, Runtime: Runtime{CommTimeout: to, Straggler: sc}})
	if err != nil {
		t.Fatal(err)
	}
	for app, out := range map[string]Outcome{"ADI": adi.Outcome, "smoothing": smooth.Outcome, "PIC": pic.Outcome} {
		if len(out.Health) != 4 || out.ResumedIter != -1 || out.FinalEpoch != 0 {
			t.Errorf("%s: %d health rows, ResumedIter %d, FinalEpoch %d; want 4, -1, 0", app, len(out.Health), out.ResumedIter, out.FinalEpoch)
		}
	}
}
