package machine

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/msg"
)

// killPlan drops every outbound message of rank r after its first
// `after` sends — the permanent-kill model.
func killPlan(t *testing.T, r, after int) *msg.FaultPlan {
	t.Helper()
	return &msg.FaultPlan{Rules: []msg.FaultRule{{Kind: msg.FaultDrop, Rank: r, Peer: -1, After: after}}}
}

// regroupMachine builds a 4-rank machine with deadlines (and so the
// membership machinery) and the given fault plan.
func regroupMachine(t *testing.T, plan *msg.FaultPlan) *Machine {
	t.Helper()
	cc := hbCfg()
	var tr msg.Transport = msg.NewChanTransport(4)
	if plan != nil {
		tr = msg.NewFaultTransport(tr, plan)
	}
	return New(4, WithTransport(tr), WithRetry(cc))
}

// TestRegroupAfterKill: rank 2 goes permanently silent mid-run; the
// in-flight collective aborts with ErrEpochRevoked, the survivors
// regroup into a compacted 3-rank epoch-1 view, and collectives on the
// new epoch work — including an allreduce whose result proves all three
// renumbered ranks participated.
func TestRegroupAfterKill(t *testing.T) {
	m := regroupMachine(t, killPlan(t, 2, 0))
	defer m.Close()
	var sum []int // written by view rank 0 of epoch 1
	err := m.Run(func(ctx *Ctx) error {
		err := ctx.Barrier()
		if err == nil {
			// The killed rank's own barrier can succeed (it still receives);
			// it learns of its exclusion from the revoked epoch instead.
			for i := 0; i < 200 && err == nil; i++ {
				time.Sleep(5 * time.Millisecond)
				err = ctx.Barrier()
			}
			if err == nil {
				return errors.New("barrier kept succeeding with a dead member")
			}
		}
		if !errors.Is(err, ErrEpochRevoked) {
			return errors.New("want ErrEpochRevoked, got: " + err.Error())
		}
		if err := ctx.Regroup(); err != nil {
			return err
		}
		if ctx.Epoch() != 1 || ctx.NP() != 3 {
			t.Errorf("after regroup: epoch %d np %d, want 1, 3", ctx.Epoch(), ctx.NP())
		}
		got, err := ctx.Comm().AllreduceInts([]int{ctx.Rank() + 1}, msg.SumInt)
		if err != nil {
			return err
		}
		if got[0] != 6 { // 1+2+3 over the renumbered ranks
			t.Errorf("epoch-1 allreduce = %d, want 6", got[0])
		}
		if ctx.Rank() == 0 {
			sum = got
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(sum) == 0 {
		t.Fatal("no epoch-1 rank 0 recorded a result")
	}
	if s := m.Survivors(); len(s) != 3 || s[0] != 0 || s[1] != 1 || s[2] != 3 {
		t.Fatalf("survivors = %v, want [0 1 3]", s)
	}
}

// TestRegroupExcludesDeadRank: the killed rank itself observes its death
// in the shared detector and gets ErrExcluded from Regroup; returning it
// must not abort the survivors' run.
func TestRegroupExcludesDeadRank(t *testing.T) {
	m := regroupMachine(t, killPlan(t, 2, 0))
	defer m.Close()
	sawExcluded := false
	err := m.Run(func(ctx *Ctx) error {
		var err error
		for i := 0; i < 400 && err == nil; i++ {
			time.Sleep(5 * time.Millisecond)
			err = ctx.Barrier()
		}
		if err == nil {
			return errors.New("no rank ever saw the revocation")
		}
		if rerr := ctx.Regroup(); rerr != nil {
			if errors.Is(rerr, ErrExcluded) && ctx.Rank() == 2 {
				sawExcluded = true
			}
			return rerr
		}
		return ctx.Barrier()
	})
	if err != nil {
		t.Fatalf("survivors' run should succeed; got: %v", err)
	}
	if !sawExcluded {
		t.Fatal("dead rank never got ErrExcluded")
	}
}

// TestRegroupRequiresLiveness / timeout config: misconfiguration is a
// named error, not a hang.
func TestRegroupRequiresLivenessAndTimeout(t *testing.T) {
	m := New(2)
	defer m.Close()
	err := m.Run(func(ctx *Ctx) error { return ctx.Regroup() })
	if err == nil {
		t.Fatal("Regroup without liveness should fail")
	}
}

// TestRegroupNoDeathTimesOut: calling Regroup when nobody is dead must
// return an error after the detection budget, so a spurious recovery
// attempt surfaces the original failure instead of spinning.
func TestRegroupNoDeathTimesOut(t *testing.T) {
	m := regroupMachine(t, nil)
	defer m.Close()
	err := m.Run(func(ctx *Ctx) error {
		err := ctx.Regroup()
		if err == nil {
			return errors.New("regroup with all ranks alive should fail")
		}
		if errors.Is(err, ErrExcluded) || errors.Is(err, ErrEpochRevoked) {
			return errors.New("want a plain no-death error, got: " + err.Error())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEpochRevokedIsTyped: the abort delivered to an in-flight
// collective on a revoked epoch unwraps to ErrEpochRevoked, so recovery
// loops can switch on it.
func TestEpochRevokedIsTyped(t *testing.T) {
	m := regroupMachine(t, killPlan(t, 2, 0))
	defer m.Close()
	typed := make([]bool, 4) // indexed by rank; no rank returns an error,
	// so the transport stays open and every rank's own checkLive fires
	// (a returned error would close the transport and turn the others'
	// aborts into plain ErrClosed).
	err := m.Run(func(ctx *Ctx) error {
		var err error
		for i := 0; i < 400 && err == nil; i++ {
			time.Sleep(5 * time.Millisecond)
			err = ctx.Barrier()
		}
		if err == nil {
			return errors.New("collectives kept succeeding")
		}
		typed[ctx.Rank()] = errors.Is(err, ErrEpochRevoked)
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for r, ok := range typed {
		if !ok {
			t.Errorf("rank %d: abort was not typed ErrEpochRevoked", r)
		}
	}
}

// TestExcludedRunLeaksNoGoroutines extends the goroutine-leak gate to
// the online-recovery path: a run where one rank exits with ErrExcluded
// while the survivors regroup and finish must join everything — rank
// goroutines, retry timers, and (at Close) the probe responders.
func TestExcludedRunLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 2; i++ {
		m := regroupMachine(t, killPlan(t, 2, 0))
		err := m.Run(func(ctx *Ctx) error {
			var err error
			for i := 0; i < 400 && err == nil; i++ {
				time.Sleep(5 * time.Millisecond)
				err = ctx.Barrier()
			}
			if err == nil {
				return errors.New("no revocation observed")
			}
			if rerr := ctx.Regroup(); rerr != nil {
				return rerr
			}
			return ctx.Barrier()
		})
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		m.Close()
	}
	if n := settleGoroutines(base+2, 2*time.Second); n > base+2 {
		t.Fatalf("goroutines: %d before, %d after excluded runs (leak)", base, n)
	}
}

// TestMasksPayload pins the agreement payload: 3·np ints, the dead mask
// first, then joins, then drains; a payload too short for a mask leaves
// its ranks unset.
func TestMasksPayload(t *testing.T) {
	T, F := true, false
	for _, tc := range []struct {
		ms   masks
		bits []int
	}{
		{masks{{T, F, T}, {F, T, F}, {F, F, T}}, []int{1, 0, 1, 0, 1, 0, 0, 0, 1}},
		{masks{{F, F}, {F, F}, {F, F}}, []int{0, 0, 0, 0, 0, 0}},
		{masks{{F, F, F, T}, {T, F, F, F}, {F, T, T, F}}, []int{0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0}},
	} {
		got := tc.ms.encode()
		if want := msg.EncodeInts(tc.bits); !bytes.Equal(got, want) {
			t.Errorf("%v: payload %x, want %x", tc.ms, got, want)
		}
		if back := decodeMasks(got, len(tc.ms[0])); !reflect.DeepEqual(back, tc.ms) {
			t.Errorf("%v: decodes to %v", tc.ms, back)
		}
	}
	short := decodeMasks(msg.EncodeInts([]int{1, 0, 1, 1}), 3)
	if want := (masks{{T, F, T}, {T, F, F}, {F, F, F}}); !reflect.DeepEqual(short, want) {
		t.Errorf("short payload decodes to %v, want %v", short, want)
	}
}
