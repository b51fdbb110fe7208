package machine

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/msg"
)

// hbCfg is the retry policy of the membership tests: its Timeout is the
// deadline whose misses raise suspicions, and the deadline a probe's
// reply gets.
func hbCfg() msg.RetryPolicy {
	return msg.RetryPolicy{Timeout: 150 * time.Millisecond, Retries: 2}
}

// TestLivenessSilentRankConfirmed: a rank silenced by a permanent drop
// rule mid-run is confirmed dead from the deadlines the survivors miss on
// it, and the survivors have regrouped within 4×Timeout of the last send
// the silenced rank could have made (it entered its last barrier before
// the kill at that instant).
func TestLivenessSilentRankConfirmed(t *testing.T) {
	cc := hbCfg()
	const killAt = 3 // rank 2's sends are dropped from its 4th barrier on
	m := regroupMachine(t, killPlan(t, 2, 2*killAt))
	defer m.Close()
	var lastSend time.Time // rank 2 enters barrier killAt-1
	regrouped := make([]time.Time, 4)
	err := m.Run(func(ctx *Ctx) error {
		var err error
		for i := 0; err == nil; i++ {
			if i == 400 {
				return errors.New("no revocation observed")
			}
			if ctx.PhysRank() == 2 && i == killAt-1 {
				lastSend = time.Now()
			}
			time.Sleep(time.Millisecond)
			err = ctx.Barrier()
		}
		if !errors.Is(err, ErrEpochRevoked) {
			return fmt.Errorf("want ErrEpochRevoked, got: %w", err)
		}
		if err := ctx.Regroup(); err != nil {
			return err // rank 2: ErrExcluded
		}
		regrouped[ctx.PhysRank()] = time.Now()
		return ctx.Barrier()
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if s := m.Survivors(); len(s) != 3 || s[0] != 0 || s[1] != 1 || s[2] != 3 {
		t.Fatalf("survivors = %v, want [0 1 3]", s)
	}
	var latency time.Duration
	for _, r := range []int{0, 1, 3} {
		latency = max(latency, regrouped[r].Sub(lastSend))
	}
	t.Logf("silent rank 2: survivors regrouped %v after its last send (Timeout %v, bound %v)", latency, cc.Timeout, 4*cc.Timeout)
	if latency > 4*cc.Timeout {
		t.Fatalf("survivors regrouped %v after the last send, want within 4×Timeout = %v", latency, 4*cc.Timeout)
	}
}

// TestLivenessSleepingRankNotDead: a live rank that sleeps 3×Timeout in
// its body while a peer waits on it makes the waiting ranks miss
// deadlines, and the probes those raise are answered by its responder:
// nobody is declared dead, and the run finishes on epoch 0 with every
// rank — where a detector that judges silence over a window would
// declare the sleeper dead.
func TestLivenessSleepingRankNotDead(t *testing.T) {
	cc := hbCfg()
	m := New(4, WithRetry(cc))
	defer m.Close()
	epochs := make([]int, 4)
	err := m.Run(func(ctx *Ctx) error {
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 1 {
			time.Sleep(3 * cc.Timeout)
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}
		epochs[ctx.Rank()] = ctx.Epoch()
		return nil
	})
	if err != nil {
		t.Fatalf("run with a sleeping rank: %v", err)
	}
	if s := m.Survivors(); len(s) != 4 {
		t.Fatalf("survivors = %v, want all 4", s)
	}
	for r, e := range epochs {
		if e != 0 {
			t.Errorf("rank %d finished on epoch %d, want 0", r, e)
		}
	}
	// Two barriers on four ranks send 16 messages; the missed deadlines
	// on the sleeper sent probes besides.
	if n := m.Stats().Snapshot().TotalMsgs(); n <= 16 {
		t.Errorf("%d messages: the waits on the sleeper raised no probe", n)
	}
}

// TestLivenessLostFrameIsNoDeath: a drop rule with count=1 loses one of
// rank 2's frames.  The rank waiting for it misses its deadlines and
// probes rank 2, which answers: the receive fails with its timeout, and
// nobody is declared dead.
func TestLivenessLostFrameIsNoDeath(t *testing.T) {
	plan := &msg.FaultPlan{Rules: []msg.FaultRule{{Kind: msg.FaultDrop, Rank: 2, Peer: -1, Count: 1}}}
	m := New(4, WithTransport(msg.NewFaultTransport(msg.NewChanTransport(4), plan)),
		WithRetry(msg.RetryPolicy{Timeout: 50 * time.Millisecond, Retries: 1}))
	defer m.Close()
	errs := make([]error, 4)
	// No rank returns an error, so the transport stays open and every
	// rank's receive reports what it saw.
	if err := m.Run(func(ctx *Ctx) error {
		errs[ctx.Rank()] = ctx.Barrier()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for r, err := range errs {
		if err == nil {
			continue
		}
		failed++
		if errors.Is(err, ErrEpochRevoked) || !errors.Is(err, msg.ErrTimeout) {
			t.Errorf("rank %d: %v, want the receive's timeout", r, err)
		}
	}
	if failed == 0 {
		t.Error("a frame was lost but every barrier completed")
	}
	if s := m.Survivors(); len(s) != 4 {
		t.Fatalf("survivors = %v after one lost frame, want all 4", s)
	}
}

// TestLivenessLostProbeReplyIsNoDeath: a drop rule with count=2 loses
// rank 2's one frame and then its reply to the probe the lost frame
// raises.  The prober probes again, rank 2 answers, and nobody is
// declared dead: the receive fails with its timeout.
func TestLivenessLostProbeReplyIsNoDeath(t *testing.T) {
	m := faultMachine(t, 4, "drop,rank=2,count=2")
	defer m.Close()
	var sendErr, recvErr error
	if err := m.Run(func(ctx *Ctx) error {
		ep := ctx.Endpoint()
		switch ctx.Rank() {
		case 2:
			sendErr = msg.SendRetry(ep, m.retry, nil, "lost", 0, 7, []byte{1})
		case 0:
			_, recvErr = msg.RecvRetry(ep, m.retry, nil, "lost", 2, 7)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sendErr != nil {
		t.Fatalf("rank 2's send: %v", sendErr)
	}
	if errors.Is(recvErr, ErrEpochRevoked) || !errors.Is(recvErr, msg.ErrTimeout) {
		t.Errorf("rank 0's receive: %v, want its timeout", recvErr)
	}
	if s := m.Survivors(); len(s) != 4 {
		t.Fatalf("survivors = %v after a lost frame and a lost probe reply, want all 4", s)
	}
}

// TestLivenessStaleProbeReplyIsNoAnswer: a reply that arrives after its
// suspicion was settled answers no later one.  With every send of rank 2
// lost, a stale reply from it waiting in rank 0's mailbox leaves rank 0's
// suspicion confirmed.
func TestLivenessStaleProbeReplyIsNoAnswer(t *testing.T) {
	m := faultMachine(t, 4, "drop,rank=2")
	defer m.Close()
	// Filed beneath the fault layer, as a late reply would have been.
	if err := msg.Wire(m.Transport().Endpoint(2)).Send(0, msg.TagProbeReply, make([]byte, probeSeqLen)); err != nil {
		t.Fatal(err)
	}
	if err := m.suspect(0, 2); !errors.Is(err, ErrEpochRevoked) {
		t.Fatalf("suspicion of a silent rank: %v, want its death confirmed", err)
	}
	if s := m.Survivors(); len(s) != 3 || s[2] != 3 {
		t.Fatalf("survivors = %v, want [0 1 3]", s)
	}
}

// faultMachine is a membership machine of np ranks on a chan transport
// under the fault plan spec.
func faultMachine(t *testing.T, np int, spec string) *Machine {
	t.Helper()
	plan, err := msg.ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return New(np, WithTransport(msg.NewFaultTransport(msg.NewChanTransport(np), plan)),
		WithRetry(msg.RetryPolicy{Timeout: 50 * time.Millisecond, Retries: 1}))
}

// TestLivenessRecvErrRankEndsRun: a rank whose every receive fails fails
// the run, and Close returns: its probe responder waits beneath the
// fault layer and sees the transport close.
func TestLivenessRecvErrRankEndsRun(t *testing.T) {
	m := faultMachine(t, 4, "recverr,rank=1")
	done := make(chan error, 1)
	go func() {
		err := m.Run(func(ctx *Ctx) error { return ctx.Barrier() })
		m.Close()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run under a persistent recverr rule succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run or Close still blocked 5 s after start")
	}
}

// TestLivenessResponderLeavesRecvRulesToProgram: the probe responders'
// idle waits use up no receive-side rule, so a recverr rule with count=1
// fails the program's first receive.
func TestLivenessResponderLeavesRecvRulesToProgram(t *testing.T) {
	m := faultMachine(t, 2, "recverr,rank=1,count=1")
	defer m.Close()
	time.Sleep(20 * time.Millisecond) // the responders are waiting
	err := m.Run(func(ctx *Ctx) error {
		ep := m.Transport().Endpoint(ctx.Rank())
		if ctx.Rank() == 0 {
			return ep.Send(1, 7, []byte{1})
		}
		if _, err := ep.Recv(0, 7); !errors.Is(err, msg.ErrInjected) {
			return fmt.Errorf("first receive: %v, want the injected error", err)
		}
		_, err := ep.Recv(0, 7)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSurvivorsNilWithoutLiveness: no retry Timeout, no membership, no
// claim.
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
// rank goroutine, and Close every probe responder and transport reader.  This pins down the contract recovery relies on: after a
// failed run the process can build a fresh, smaller machine without
// inheriting stuck goroutines from the dead one.
func TestErroringRunLeaksNoGoroutines(t *testing.T) {
	cc := hbCfg()
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		m := New(4, WithRetry(cc))
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
