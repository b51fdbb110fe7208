package apps

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/machine"
)

// iterStarts runs dry — the test's own configuration with the fault left
// out — and returns how many messages victim had sent when each iteration
// of its first epoch began.  A dry run turns the integrity layer on: like
// the fault layer, it takes DISTRIBUTE offers off the shared-memory token
// path, so both runs send the same messages.  A fault rule on victim with
// after=starts[it] first fires on the first send of iteration it: kill
// points derived this way follow the run's message count wherever it
// goes.  A fault-free run sends no membership probe, so the dry run's
// counts are the program's own; the killed run's first probe comes after
// the kill has fired.
func iterStarts(t *testing.T, victim int, dry func() error) []int {
	t.Helper()
	var starts []int // appended by the victim's goroutine only
	testHookStep = func(ctx *machine.Ctx, it int) {
		if ctx.PhysRank() == victim && ctx.Epoch() == 0 {
			starts = append(starts, int(ctx.Machine().Stats().Snapshot().MsgsSent[victim]))
		}
	}
	defer func() { testHookStep = nil }()
	if err := dry(); err != nil {
		t.Fatalf("fault-free dry run: %v", err)
	}
	return starts
}

// killAfter is the after= of a fault rule on victim that first fires on
// its off-th send (from 0) of iteration it, measured on a dry run.
func killAfter(t *testing.T, victim, it, off int, dry func() error) int {
	t.Helper()
	starts := iterStarts(t, victim, dry)
	if it >= len(starts) {
		t.Fatalf("the dry run began %d iterations on rank %d, none numbered %d", len(starts), victim, it)
	}
	return starts[it] + off
}

// TestADIKillAndRecover is the end-to-end acceptance path: an ADI run
// with periodic checkpoints is killed by a permanently silent rank, the
// failure detector names the survivors, and a relaunch on the three
// survivors with -recover resumes from the last committed epoch and
// converges to the fault-free answer within 1e-12.
func TestADIKillAndRecover(t *testing.T) {
	dir := t.TempDir()
	base := ADIConfig{
		NX: 24, NY: 24, Iters: 8, Mode: ADIDynamic, Validate: true,
		Runtime: Runtime{
			CkptDir: dir, CkptEvery: 1,
		},
	}

	// Phase 1: 4 ranks, rank 2 falls permanently silent once the run is
	// under way (at iteration 4, so the first checkpoints commit).
	killed := base
	killed.P = 4
	killed.CommTimeout = 150 * time.Millisecond
	killed.CommRetries = 2
	after := killAfter(t, 2, 4, 0, func() error {
		dry := killed
		dry.CkptDir = t.TempDir()
		dry.Integrity = true // offers framed, as under the fault plan
		_, err := RunADI(dry)
		return err
	})
	killed.Fault = fmt.Sprintf("drop,rank=2,after=%d", after)
	res, err := RunADI(killed)
	if err == nil {
		t.Fatal("run with a permanently silent rank should fail")
	}
	if len(res.Survivors) != 3 || res.Survivors[0] != 0 || res.Survivors[1] != 1 || res.Survivors[2] != 3 {
		t.Fatalf("survivors = %v, want [0 1 3]", res.Survivors)
	}
	epoch, man, lerr := ckpt.LatestEpoch(dir)
	if lerr != nil || epoch < 0 {
		t.Fatalf("no committed checkpoint before the kill (epoch %d, %v); raise after=", epoch, lerr)
	}
	if it, ok := man.MetaInt("iter"); !ok || it >= base.Iters-1 {
		t.Fatalf("checkpoint iter = %d (ok=%v): kill came too late to exercise resumption", it, ok)
	}

	// Phase 2: relaunch on the survivors.  The recovered run must resume
	// after the checkpointed iteration and land on the serial reference.
	rec := base
	rec.P = len(res.Survivors)
	rec.Recover = true
	res2, err := RunADI(rec)
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}
	if res2.ResumedIter < 0 {
		t.Fatal("recovery run did not resume from a checkpoint")
	}
	if res2.MaxErr > 1e-12 {
		t.Fatalf("recovered result deviates from fault-free reference: MaxErr = %g", res2.MaxErr)
	}
}

// TestADIRecoverSameRankCount: recovery onto the original rank count
// replays the descriptor exactly (bit-identical restore) and still
// converges.
func TestADIRecoverSameRankCount(t *testing.T) {
	dir := t.TempDir()
	first := ADIConfig{NX: 16, NY: 16, Iters: 3, P: 4, Mode: ADIDynamic, Runtime: Runtime{CkptDir: dir}}
	if _, err := RunADI(first); err != nil {
		t.Fatal(err)
	}
	rec := ADIConfig{NX: 16, NY: 16, Iters: 6, P: 4, Mode: ADIDynamic, Validate: true, Runtime: Runtime{CkptDir: dir, Recover: true}}
	res, err := RunADI(rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedIter != 2 {
		t.Fatalf("resumed after iteration %d, want 2", res.ResumedIter)
	}
	if res.MaxErr > 1e-12 {
		t.Fatalf("MaxErr = %g", res.MaxErr)
	}
}

// TestSmoothingRecoverFewerRanks: the smoothing app checkpoints both
// double-buffers plus the step parity; a shrink-recovery must reproduce
// the serial reference exactly.
func TestSmoothingRecoverFewerRanks(t *testing.T) {
	dir := t.TempDir()
	first := SmoothConfig{N: 20, Steps: 3, P: 4, Mode: SmoothColumns, Runtime: Runtime{CkptDir: dir}}
	if _, err := RunSmoothing(first); err != nil {
		t.Fatal(err)
	}
	rec := SmoothConfig{N: 20, Steps: 7, P: 2, Mode: SmoothColumns, Validate: true, Runtime: Runtime{CkptDir: dir, Recover: true}}
	res, err := RunSmoothing(rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxErr > 1e-12 {
		t.Fatalf("MaxErr = %g", res.MaxErr)
	}
}

// TestPICRecoverConservation: PIC recovery restores FIELD and COUNT
// (connect class, B_BLOCK degrading to BLOCK on the shrunken machine)
// and particle conservation holds through kill and recovery.
func TestPICRecoverConservation(t *testing.T) {
	dir := t.TempDir()
	first := PICConfig{NCell: 32, Steps: 4, P: 4, Rebalance: true, RebalanceEvery: 2, InitPerCell: 16, Runtime: Runtime{CkptDir: dir}}
	if _, err := RunPIC(first); err != nil {
		t.Fatal(err)
	}
	rec := PICConfig{NCell: 32, Steps: 8, P: 3, Rebalance: true, RebalanceEvery: 2, InitPerCell: 16, Runtime: Runtime{CkptDir: dir, Recover: true}}
	res, err := RunPIC(rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.ParticlesEnd != float64(32*16) {
		t.Fatalf("particles not conserved through recovery: %v, want %v", res.ParticlesEnd, 32*16)
	}
}

// TestSoakChaos is the bounded chaos run of `make soak`: seeded-random
// ADI shapes are killed at seeded-random points by a permanently silent
// seeded-random rank, recovered on the survivors, and checked against
// the serial reference.  Two rounds run in the normal suite; SOAK=1
// extends the matrix.
func TestSoakChaos(t *testing.T) {
	rounds := 2
	if os.Getenv("SOAK") != "" {
		rounds = 8
	}
	rng := rand.New(rand.NewSource(42)) // fixed seed: reproducible chaos
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		n := 16 + 4*rng.Intn(4)
		iters := 5 + rng.Intn(4)
		victim := rng.Intn(4)
		after := 100 + rng.Intn(250)
		base := ADIConfig{NX: n, NY: n, Iters: iters, Mode: ADIDynamic, Validate: true, Runtime: Runtime{CkptDir: dir, CkptEvery: 1}}

		killed := base
		killed.P = 4
		killed.Fault = fmt.Sprintf("drop,rank=%d,after=%d", victim, after)
		killed.CommTimeout = 150 * time.Millisecond
		killed.CommRetries = 2
		res, err := RunADI(killed)
		if err == nil {
			// The kill landed after the run finished all iterations —
			// still a valid chaos outcome; the checkpoint must validate.
			if res.MaxErr > 1e-12 {
				t.Fatalf("round %d: fault-free-ish run MaxErr = %g", round, res.MaxErr)
			}
			continue
		}
		epoch, _, lerr := ckpt.LatestEpoch(dir)
		if lerr != nil {
			t.Fatalf("round %d: %v", round, lerr)
		}
		if epoch < 0 {
			continue // killed before the first commit: nothing to recover
		}
		np := len(res.Survivors)
		if np == 0 {
			np = 3
		}
		rec := base
		rec.P = np
		rec.Recover = true
		res2, err := RunADI(rec)
		if err != nil {
			t.Fatalf("round %d (n=%d iters=%d victim=%d after=%d): recovery: %v", round, n, iters, victim, after, err)
		}
		if res2.MaxErr > 1e-12 {
			t.Fatalf("round %d (n=%d iters=%d victim=%d after=%d): MaxErr = %g", round, n, iters, victim, after, res2.MaxErr)
		}
	}
}
