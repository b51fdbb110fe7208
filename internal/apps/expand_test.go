package apps

import (
	"fmt"
	"testing"
	"time"
)

// expandADI is the shared shape of the elastic scale-out matrix: a
// 3-rank ADI in the given mode with one reserved joiner, per-iteration
// checkpoints, and join polling from the given iteration boundary.
// The members must admit the joiner mid-run, replay the checkpoint onto
// the grown 4-rank view, finish there, and still match the serial
// reference bit-for-bit.
func expandADI(t *testing.T, mode ADIMode, useTCP bool, joinAfter int) ADIResult {
	t.Helper()
	dir := t.TempDir()
	cfg := ADIConfig{
		NX: 24, NY: 24, Iters: 8, P: 3, Mode: mode, Validate: true,
		Runtime: Runtime{
			CkptDir: dir, CkptEvery: 1,
			UseTCP:        useTCP,
			CommTimeout:   150 * time.Millisecond,
			CommRetries:   2,
			Join:          1,
			JoinAfterIter: joinAfter,
		},
	}
	res, err := RunADI(cfg)
	if err != nil {
		t.Fatalf("elastic expand run (%v tcp=%v joinAfter=%d): %v", mode, useTCP, joinAfter, err)
	}
	if res.FinalEpoch < 1 {
		t.Fatalf("run finished on epoch %d: the joiner was never admitted", res.FinalEpoch)
	}
	if len(res.Survivors) != 4 {
		t.Fatalf("survivors = %v, want all 4 (3 base + joiner)", res.Survivors)
	}
	if res.ResumedIter < 0 {
		t.Fatal("grown view did not resume from the pre-admission checkpoint")
	}
	if res.MaxErr != 0 {
		t.Fatalf("grown-view result deviates from serial reference: MaxErr = %g, want bit-for-bit 0", res.MaxErr)
	}
	return res
}

// TestExpandADIChan: the joiner is admitted at the first iteration
// boundary, before the iteration loop has built up collective state.
func TestExpandADIChan(t *testing.T) { expandADI(t, ADIDynamic, false, 0) }

// TestExpandADIChanMidRun: admission after several iterations of
// DISTRIBUTE traffic — the schedule/plan caches and collective
// sequences of the old epoch must not leak into the grown view.
func TestExpandADIChanMidRun(t *testing.T) { expandADI(t, ADIDynamic, false, 4) }

// TestExpandADITCP: the same join handshake over real sockets.
func TestExpandADITCP(t *testing.T) { expandADI(t, ADIDynamic, true, 0) }

// TestExpandADITCPMidRun: sockets × late admission.
func TestExpandADITCPMidRun(t *testing.T) { expandADI(t, ADIDynamic, true, 4) }

// TestExpandADIStaticCols: the static (:,BLOCK) mode, whose sweeps
// pipeline across the column blocks, grows onto the joiner as well.
func TestExpandADIStaticCols(t *testing.T) { expandADI(t, ADIStaticCols, false, 2) }

// TestExpandRejectedJoin: a reserved rank is configured but the members
// never reach the polling boundary (JoinAfterIter beyond the run).  The
// joiner parks, is told off at run end (ErrNeverJoined, non-fatal), and
// the epoch-0 members finish untouched and bit-exact.
func TestExpandRejectedJoin(t *testing.T) {
	dir := t.TempDir()
	res, err := RunADI(ADIConfig{
		NX: 24, NY: 24, Iters: 4, P: 3, Mode: ADIDynamic, Validate: true,
		Runtime: Runtime{
			CkptDir: dir, CkptEvery: 1,
			CommTimeout:   150 * time.Millisecond,
			CommRetries:   2,
			Join:          1,
			JoinAfterIter: 100,
		},
	})
	if err != nil {
		t.Fatalf("rejected join must not fail the run: %v", err)
	}
	if res.FinalEpoch != 0 {
		t.Fatalf("rejected join still moved the epoch to %d", res.FinalEpoch)
	}
	if res.MaxErr != 0 {
		t.Fatalf("MaxErr = %g on the unchanged epoch-0 view", res.MaxErr)
	}
}

// TestExpandUnderFault: a rank dies while a joiner is waiting.  The
// run must absorb both membership changes — shrink-recovery for the
// death, the join at a later boundary (or both in one transition) —
// and still finish bit-exact.
func TestExpandUnderFault(t *testing.T) {
	cfg := ADIConfig{
		NX: 24, NY: 24, Iters: 8, P: 4, Mode: ADIDynamic, Validate: true,
		Runtime: Runtime{
			CkptEvery:     1,
			CommTimeout:   150 * time.Millisecond,
			CommRetries:   2,
			OnlineRecover: true,
			Join:          1,
			JoinAfterIter: 2,
		},
	}
	// Rank 2 dies inside iteration 1: after the first commit, before the
	// first boundary that polls for the waiting joiner.
	after := killAfter(t, 2, 1, 1, func() error {
		dry := cfg
		dry.CkptDir = t.TempDir()
		dry.Integrity = true // offers framed, as under the fault plan
		_, err := RunADI(dry)
		return err
	})
	cfg.CkptDir = t.TempDir()
	cfg.Fault = fmt.Sprintf("drop,rank=2,after=%d", after)
	res, err := RunADI(cfg)
	if err != nil {
		t.Fatalf("expand under fault: %v", err)
	}
	if res.FinalEpoch < 1 {
		t.Fatalf("run finished on epoch %d: neither transition landed", res.FinalEpoch)
	}
	if res.MaxErr != 0 {
		t.Fatalf("MaxErr = %g after death + join", res.MaxErr)
	}
}

// TestExpandRespectsMemBudget: the post-join redistributions of the
// resumed loop run at the grown processor count and must stay under the
// configured planner budget — measured by the wire gauge, attributed to
// physical ranks.  The run is over TCP: on shared memory ADI's rect
// transfers are pulled straight out of the senders' storage and hold no
// wire bytes, which would leave the bound nothing to check.
func TestExpandRespectsMemBudget(t *testing.T) {
	const budget = 2048
	dir := t.TempDir()
	res, err := RunADI(ADIConfig{
		NX: 32, NY: 32, Iters: 6, P: 3, Mode: ADIDynamic, Validate: true,
		Runtime: Runtime{
			UseTCP:  true,
			CkptDir: dir, CkptEvery: 1,
			CommTimeout:   150 * time.Millisecond,
			CommRetries:   2,
			Join:          1,
			JoinAfterIter: 2,
			MemBudget:     budget,
		},
	})
	if err != nil {
		t.Fatalf("elastic budgeted run: %v", err)
	}
	if res.FinalEpoch < 1 {
		t.Fatal("joiner was never admitted")
	}
	if res.MaxErr != 0 {
		t.Fatalf("MaxErr = %g", res.MaxErr)
	}
	if res.PeakWireBytes == 0 {
		t.Fatal("no redistribution residency measured")
	}
	if res.PeakWireBytes > budget {
		t.Fatalf("peak resident wire bytes %d exceed the %d budget", res.PeakWireBytes, budget)
	}
}

// TestExpandSmoothing: the double-buffered stencil grows mid-run; the
// checkpointed step parity replays onto the 4-rank view and the result
// stays within float tolerance of the serial reference.
func TestExpandSmoothing(t *testing.T) {
	dir := t.TempDir()
	res, err := RunSmoothing(SmoothConfig{
		N: 24, Steps: 8, P: 3, Mode: SmoothColumns, Validate: true,
		Runtime: Runtime{
			CkptDir: dir, CkptEvery: 1,
			CommTimeout:   150 * time.Millisecond,
			CommRetries:   2,
			Join:          1,
			JoinAfterIter: 2,
		},
	})
	if err != nil {
		t.Fatalf("elastic smoothing: %v", err)
	}
	if res.FinalEpoch < 1 {
		t.Fatal("joiner was never admitted")
	}
	if res.MaxErr > 1e-12 {
		t.Fatalf("MaxErr = %g after expansion", res.MaxErr)
	}
}

// TestExpandPICConservation: PIC grows mid-run; the next rebalance
// spreads B_BLOCK bounds over the admitted rank and particle
// conservation holds across the membership change.
func TestExpandPICConservation(t *testing.T) {
	dir := t.TempDir()
	res, err := RunPIC(PICConfig{
		NCell: 32, Steps: 8, P: 3, Rebalance: true, RebalanceEvery: 2, InitPerCell: 16,
		Runtime: Runtime{
			CkptDir: dir, CkptEvery: 1,
			CommTimeout:   150 * time.Millisecond,
			CommRetries:   2,
			Join:          1,
			JoinAfterIter: 2,
		},
	})
	if err != nil {
		t.Fatalf("elastic PIC: %v", err)
	}
	if res.FinalEpoch < 1 {
		t.Fatal("joiner was never admitted")
	}
	if res.ParticlesEnd != float64(32*16) {
		t.Fatalf("particles not conserved through the expansion: %v, want %v", res.ParticlesEnd, 32*16)
	}
}
