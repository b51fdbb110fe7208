package machine

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/msg"
)

// hbCfg is a liveness/retry configuration tuned so tests detect a dead
// rank well before a blocked collective exhausts its retries.
func hbCfg() (LivenessConfig, msg.RetryPolicy) {
	return LivenessConfig{Interval: 5 * time.Millisecond, Window: 75 * time.Millisecond},
		msg.RetryPolicy{Timeout: 150 * time.Millisecond, Retries: 2}
}

// TestLivenessAllAlive: a healthy run declares no one dead.
func TestLivenessAllAlive(t *testing.T) {
	lc, cc := hbCfg()
	m := New(4, WithLiveness(lc), WithRetry(cc))
	defer m.Close()
	err := m.Run(func(ctx *Ctx) error {
		time.Sleep(3 * lc.Window) // give heartbeats several windows
		return ctx.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Survivors(); len(s) != 4 {
		t.Fatalf("survivors = %v, want all 4", s)
	}
}

// TestLivenessDetectsSilentRank: a rank whose every outbound message is
// dropped (the permanent-kill fault) must be declared dead by the
// detector, the blocked collective must abort via the retry budget, and
// Survivors must name exactly the other ranks.
func TestLivenessDetectsSilentRank(t *testing.T) {
	plan, err := msg.ParseFaultPlan("drop,rank=2")
	if err != nil {
		t.Fatal(err)
	}
	lc, cc := hbCfg()
	ft := msg.NewFaultTransport(msg.NewChanTransport(4), plan)
	m := New(4, WithTransport(ft), WithLiveness(lc), WithRetry(cc))
	defer m.Close()
	err = m.Run(func(ctx *Ctx) error {
		// Rank 2's sends all vanish, so this collective cannot complete;
		// the deadline/retry policy turns the hang into an error.
		return ctx.Barrier()
	})
	if err == nil {
		t.Fatal("barrier with a dead rank should fail")
	}
	s := m.Survivors()
	if len(s) != 3 || s[0] != 0 || s[1] != 1 || s[2] != 3 {
		t.Fatalf("survivors = %v, want [0 1 3]", s)
	}
}

// TestSurvivorsNilWithoutLiveness: no detector, no claim.
func TestSurvivorsNilWithoutLiveness(t *testing.T) {
	m := New(2)
	defer m.Close()
	if err := m.Run(func(ctx *Ctx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if s := m.Survivors(); s != nil {
		t.Fatalf("survivors = %v, want nil", s)
	}
}

// settleGoroutines polls until the goroutine count drops back to at most
// base, or the deadline passes, and returns the final count.  Runtime
// bookkeeping goroutines wind down asynchronously after transport close,
// so a single instantaneous reading would be flaky.
func settleGoroutines(base int, d time.Duration) int {
	deadline := time.Now().Add(d)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestErroringRunLeaksNoGoroutines: a Run that aborts — body error on
// one rank, peers unwound through the closed transport — must join every
// rank goroutine, heartbeat sender/monitor, and transport reader before
// returning.  This pins down the contract recovery relies on: after a
// failed run the process can build a fresh, smaller machine without
// inheriting stuck goroutines from the dead one.
func TestErroringRunLeaksNoGoroutines(t *testing.T) {
	lc, cc := hbCfg()
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		m := New(4, WithLiveness(lc), WithRetry(cc))
		err := m.Run(func(ctx *Ctx) error {
			if ctx.Rank() == 1 {
				return errors.New("injected body failure")
			}
			return ctx.Barrier()
		})
		if err == nil {
			t.Fatal("run should report the injected failure")
		}
		m.Close()
	}
	// Allow scheduling slack beyond the baseline, but far fewer than one
	// leaked rank set (3 runs × 4 ranks × ≥2 goroutines each).
	if n := settleGoroutines(base+2, 2*time.Second); n > base+2 {
		t.Fatalf("goroutines: %d before, %d after erroring runs (leak)", base, n)
	}
}

// TestPanickingRunLeaksNoGoroutines: same contract when the body panics
// while peers sit in a collective.
func TestPanickingRunLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	m := New(4)
	err := m.Run(func(ctx *Ctx) error {
		if ctx.Rank() == 2 {
			panic("injected panic")
		}
		return ctx.Barrier()
	})
	if err == nil {
		t.Fatal("run should report the panic")
	}
	m.Close()
	if n := settleGoroutines(base+2, 2*time.Second); n > base+2 {
		t.Fatalf("goroutines: %d before, %d after panicking run (leak)", base, n)
	}
}
