package machine

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/msg"
)

// TestDrainShrinksEpoch: all four ranks agree to drain view rank 2; the
// drained rank exits with ErrDrained, the survivors install a compacted
// 3-rank epoch-1 view and their collectives work, and the run as a
// whole succeeds — a voluntary departure is not an abort.
func TestDrainShrinksEpoch(t *testing.T) {
	cc := hbCfg()
	m := New(4, WithRetry(cc))
	defer m.Close()
	err := m.Run(func(ctx *Ctx) error {
		if err := ctx.Barrier(); err != nil {
			return err
		}
		derr := ctx.Drain(2)
		if ctx.PhysRank() == 2 {
			if !errors.Is(derr, ErrDrained) {
				return fmt.Errorf("drained rank got %v, want ErrDrained", derr)
			}
			return derr
		}
		if derr != nil {
			return derr
		}
		if ctx.Epoch() != 1 || ctx.NP() != 3 {
			t.Errorf("after drain: epoch %d np %d, want 1, 3", ctx.Epoch(), ctx.NP())
		}
		mem := ctx.phys
		if len(mem) != 3 || mem[0] != 0 || mem[1] != 1 || mem[2] != 3 {
			t.Errorf("members = %v, want [0 1 3]", mem)
		}
		got, err := ctx.Comm().AllreduceInts([]int{ctx.Rank() + 1}, msg.SumInt)
		if err != nil {
			return err
		}
		if got[0] != 6 { // 1+2+3 over the renumbered survivors
			t.Errorf("epoch-1 allreduce = %d, want 6", got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if pd := m.drains.snapshot(); len(pd) != 0 {
		t.Fatalf("drain registry not cleared: %v", pd)
	}
}

// TestDrainRacingDeathOneEpoch: rank 3 dies for real while the
// membership drains rank 2.  The combined-mask agreement resolves both
// in ONE transition: the survivors land directly in a 2-rank epoch 1,
// the dead rank is excluded, the drained rank released.
func TestDrainRacingDeathOneEpoch(t *testing.T) {
	m := regroupMachine(t, killPlan(t, 3, 0))
	defer m.Close()
	err := m.Run(func(ctx *Ctx) error {
		var err error
		for i := 0; i < 400 && err == nil; i++ {
			time.Sleep(5 * time.Millisecond)
			err = ctx.Barrier()
		}
		if err == nil {
			return errors.New("no revocation observed")
		}
		derr := ctx.Drain(2)
		switch ctx.PhysRank() {
		case 2:
			if !errors.Is(derr, ErrDrained) {
				return fmt.Errorf("drained rank got %v, want ErrDrained", derr)
			}
			return derr
		case 3:
			if !errors.Is(derr, ErrExcluded) {
				return fmt.Errorf("dead rank got %v, want ErrExcluded", derr)
			}
			return derr
		}
		if derr != nil {
			return derr
		}
		if ctx.Epoch() != 1 || ctx.NP() != 2 {
			t.Errorf("drain+death resolved to epoch %d np %d, want ONE transition to epoch 1, np 2", ctx.Epoch(), ctx.NP())
		}
		mem := ctx.phys
		if len(mem) != 2 || mem[0] != 0 || mem[1] != 1 {
			t.Errorf("members = %v, want [0 1]", mem)
		}
		got, err := ctx.Comm().AllreduceInts([]int{ctx.Rank() + 1}, msg.SumInt)
		if err != nil {
			return err
		}
		if got[0] != 3 {
			t.Errorf("epoch-1 allreduce = %d, want 3", got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestDrainedRunLeaksNoGoroutines: the drained rank's goroutine must be
// joined when the run ends, and its probe responder when the machine
// closes — same gate the excluded/erroring paths pass.
func TestDrainedRunLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 2; i++ {
		cc := hbCfg()
		m := New(4, WithRetry(cc))
		err := m.Run(func(ctx *Ctx) error {
			ctx.ReportWork(1, time.Millisecond)
			if err := ctx.Barrier(); err != nil {
				return err
			}
			derr := ctx.Drain(1)
			if ctx.PhysRank() == 1 {
				if !errors.Is(derr, ErrDrained) {
					return fmt.Errorf("drained rank got %v, want ErrDrained", derr)
				}
				return derr
			}
			if derr != nil {
				return derr
			}
			return ctx.Barrier()
		})
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		m.Close()
	}
	if n := settleGoroutines(base+2, 2*time.Second); n > base+2 {
		t.Fatalf("goroutines: %d before, %d after drained runs (leak)", base, n)
	}
}

// TestDrainValidation: misconfiguration and bad arguments are named
// errors, not hangs.
func TestDrainValidation(t *testing.T) {
	m := New(2)
	defer m.Close()
	err := m.Run(func(ctx *Ctx) error {
		if err := ctx.Drain(0); err == nil {
			return errors.New("Drain without liveness should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cc := hbCfg()
	m2 := New(2, WithRetry(cc))
	defer m2.Close()
	err = m2.Run(func(ctx *Ctx) error {
		if err := ctx.Drain(7); err == nil {
			return errors.New("Drain of an out-of-range view rank should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

}
