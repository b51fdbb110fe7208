package apps

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/msg"
)

// onlineADI is the shared shape of the online-recovery kill matrix: a
// 4-rank dynamic ADI with per-iteration checkpoints, a permanently
// silent rank from its off-th send of iteration it on, and OnlineRecover
// — the survivors must regroup and finish in the same process, matching
// the serial reference bit-for-bit.
func onlineADI(t *testing.T, useTCP bool, it, off int) {
	t.Helper()
	cfg := ADIConfig{
		NX: 24, NY: 24, Iters: 8, P: 4, Mode: ADIDynamic, Validate: true,
		Runtime: Runtime{
			CkptEvery:     1,
			UseTCP:        useTCP,
			CommTimeout:   150 * time.Millisecond,
			CommRetries:   2,
			OnlineRecover: true,
		},
	}
	after := killAfter(t, 2, it, off, func() error {
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
		t.Fatalf("online recovery run (tcp=%v after=%d): %v", useTCP, after, err)
	}
	if res.FinalEpoch < 1 {
		t.Fatalf("run finished on epoch %d: the kill never triggered a regroup (raise after=?)", res.FinalEpoch)
	}
	if len(res.Survivors) != 3 || res.Survivors[0] != 0 || res.Survivors[1] != 1 || res.Survivors[2] != 3 {
		t.Fatalf("survivors = %v, want [0 1 3]", res.Survivors)
	}
	if res.ResumedIter < 0 {
		t.Fatal("recovery did not resume from a committed checkpoint")
	}
	if res.MaxErr != 0 {
		t.Fatalf("survivor result deviates from serial reference: MaxErr = %g, want bit-for-bit 0", res.MaxErr)
	}
}

// TestOnlineRecoverADIChan: kill at an iteration boundary (between
// collectives) over the in-process transport.
func TestOnlineRecoverADIChan(t *testing.T) { onlineADI(t, false, 4, 0) }

// TestOnlineRecoverADIChanMidCollective: a later kill point that lands
// inside the redistribution traffic of a DISTRIBUTE in flight — the
// iteration's first DISTRIBUTE, after the victim's first transfer.
func TestOnlineRecoverADIChanMidCollective(t *testing.T) { onlineADI(t, false, 6, 1) }

// TestOnlineRecoverADITCP: the same regroup over real sockets.
func TestOnlineRecoverADITCP(t *testing.T) { onlineADI(t, true, 4, 0) }

// TestOnlineRecoverADITCPMidCollective: sockets × late kill.
func TestOnlineRecoverADITCPMidCollective(t *testing.T) { onlineADI(t, true, 6, 1) }

// TestOnlineRecoverFaultFreeIsExact: a fault-free run with online
// recovery on — a CkptDir and a CommTimeout, and with the timeout the
// membership machinery — misses no deadline, so it sends no probe: it
// reports the same messages, bytes and modelled makespan as the same run
// without recovery, on both transports.
func TestOnlineRecoverFaultFreeIsExact(t *testing.T) {
	for _, useTCP := range []bool{false, true} {
		plain := ADIConfig{
			NX: 32, NY: 32, Iters: 6, P: 4, Mode: ADIDynamic, Validate: true,
			Alpha: 1e-5, Beta: 1e-9,
			Runtime: Runtime{CkptDir: t.TempDir(), CkptEvery: 2, UseTCP: useTCP},
		}
		rec := plain
		rec.CkptDir = t.TempDir()
		rec.CommTimeout, rec.CommRetries, rec.OnlineRecover = 2*time.Second, 2, true
		var got [2]ADIResult
		for i, cfg := range []ADIConfig{plain, rec} {
			res, err := RunADI(cfg)
			if err != nil {
				t.Fatalf("tcp=%v recover=%v: %v", useTCP, cfg.OnlineRecover, err)
			}
			got[i] = res
		}
		if got[0].Msgs != got[1].Msgs || got[0].Bytes != got[1].Bytes || got[0].ModelTime != got[1].ModelTime {
			t.Errorf("tcp=%v: with recovery %d msgs, %d bytes, model %v s; without %d, %d, %v s",
				useTCP, got[1].Msgs, got[1].Bytes, got[1].ModelTime, got[0].Msgs, got[0].Bytes, got[0].ModelTime)
		}
		if got[1].FinalEpoch != 0 || got[1].MaxErr != 0 {
			t.Errorf("tcp=%v: recovery run finished on epoch %d, MaxErr %g", useTCP, got[1].FinalEpoch, got[1].MaxErr)
		}
	}
}

// TestOnlineRecoverSmoothing: the smoothing app's double-buffered
// stencil survives a mid-run rank loss in-process and still matches the
// serial reference.
func TestOnlineRecoverSmoothing(t *testing.T) {
	cfg := SmoothConfig{
		N: 24, Steps: 8, P: 4, Mode: SmoothColumns, Validate: true,
		Runtime: Runtime{
			CkptEvery:     1,
			CommTimeout:   150 * time.Millisecond,
			CommRetries:   2,
			OnlineRecover: true,
		},
	}
	after := killAfter(t, 1, 4, 1, func() error {
		dry := cfg
		dry.CkptDir = t.TempDir()
		dry.Integrity = true // offers framed, as under the fault plan
		_, err := RunSmoothing(dry)
		return err
	})
	cfg.CkptDir = t.TempDir()
	cfg.Fault = fmt.Sprintf("drop,rank=1,after=%d", after)
	res, err := RunSmoothing(cfg)
	if err != nil {
		t.Fatalf("online smoothing recovery: %v", err)
	}
	if res.FinalEpoch < 1 {
		t.Fatalf("run finished on epoch %d: kill never landed", res.FinalEpoch)
	}
	if res.MaxErr > 1e-12 {
		t.Fatalf("MaxErr = %g after online recovery", res.MaxErr)
	}
}

// TestOnlineRecoverPICConservation: PIC regroups in-process; particle
// conservation holds across the membership change (FIELD and COUNT are
// one connect class, restored together).
func TestOnlineRecoverPICConservation(t *testing.T) {
	cfg := PICConfig{
		NCell: 32, Steps: 8, P: 4, Rebalance: true, RebalanceEvery: 2, InitPerCell: 16,
		Runtime: Runtime{
			CkptEvery:     1,
			CommTimeout:   150 * time.Millisecond,
			CommRetries:   2,
			OnlineRecover: true,
		},
	}
	after := killAfter(t, 3, 5, 1, func() error {
		dry := cfg
		dry.CkptDir = t.TempDir()
		dry.Integrity = true // offers framed, as under the fault plan
		_, err := RunPIC(dry)
		return err
	})
	cfg.CkptDir = t.TempDir()
	cfg.Fault = fmt.Sprintf("drop,rank=3,after=%d", after)
	res, err := RunPIC(cfg)
	if err != nil {
		t.Fatalf("online PIC recovery: %v", err)
	}
	if res.FinalEpoch < 1 {
		t.Fatalf("run finished on epoch %d: kill never landed", res.FinalEpoch)
	}
	if res.ParticlesEnd != float64(32*16) {
		t.Fatalf("particles not conserved through online recovery: %v, want %v", res.ParticlesEnd, 32*16)
	}
}

// TestOnlineBitflipSurfacesIntegrityError: a corrupted payload is caught
// by the CRC32C trailer and surfaces as the named msg.ErrIntegrity —
// never a silent wrong answer, never a panic.
func TestOnlineBitflipSurfacesIntegrityError(t *testing.T) {
	cfg := ADIConfig{
		NX: 16, NY: 16, Iters: 2, P: 4, Mode: ADIDynamic,
		Runtime: Runtime{
			CommTimeout: 100 * time.Millisecond,
			CommRetries: 2,
		},
	}
	after := killAfter(t, 1, 1, 1, func() error {
		dry := cfg
		dry.Integrity = true // what the bitflip rule implies
		_, err := RunADI(dry)
		return err
	})
	cfg.Fault = fmt.Sprintf("bitflip,rank=1,count=1,after=%d", after)
	_, err := RunADI(cfg)
	if err == nil {
		t.Fatal("a corrupted frame must fail the run (it cannot be silently absorbed)")
	}
	if !errors.Is(err, msg.ErrIntegrity) {
		t.Fatalf("err = %v, want wrapped msg.ErrIntegrity", err)
	}
}

// TestOnlineIntegrityCleanRun: the CRC layer on a fault-free run is
// invisible — the result still validates bit-for-bit.
func TestOnlineIntegrityCleanRun(t *testing.T) {
	res, err := RunADI(ADIConfig{
		NX: 16, NY: 16, Iters: 3, P: 4, Mode: ADIDynamic, Validate: true,
		Runtime: Runtime{
			Integrity: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxErr != 0 {
		t.Fatalf("MaxErr = %g over integrity transport", res.MaxErr)
	}
}

// TestSoakOnline is the online arm of `make soak`: seeded-random ADI
// shapes are killed at seeded-random points and must finish in-process
// on the survivors.  Kills that land before the first checkpoint commit
// are legitimately unrecoverable and skipped.
func TestSoakOnline(t *testing.T) {
	rounds := 2
	if os.Getenv("SOAK") != "" {
		rounds = 6
	}
	rng := rand.New(rand.NewSource(17)) // fixed seed: reproducible chaos
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		n := 16 + 4*rng.Intn(4)
		iters := 5 + rng.Intn(4)
		victim := rng.Intn(4)
		cfg := ADIConfig{
			NX: n, NY: n, Iters: iters, P: 4, Mode: ADIDynamic, Validate: true,
			Runtime: Runtime{
				CkptEvery:     1,
				CommTimeout:   150 * time.Millisecond,
				CommRetries:   2,
				OnlineRecover: true,
			},
		}
		// Any send of any iteration but the first and the last.
		starts := iterStarts(t, victim, func() error {
			dry := cfg
			dry.CkptDir = t.TempDir()
			dry.Integrity = true // offers framed, as under the fault plan
			_, err := RunADI(dry)
			return err
		})
		it := 1 + rng.Intn(iters-2)
		after := starts[it] + rng.Intn(starts[it+1]-starts[it])
		cfg.CkptDir = dir
		cfg.Fault = fmt.Sprintf("drop,rank=%d,after=%d", victim, after)
		res, err := RunADI(cfg)
		if err != nil {
			if epoch, _, lerr := ckpt.LatestEpoch(dir); lerr == nil && epoch < 0 {
				continue // killed before the first commit: nothing to recover from
			}
			t.Fatalf("round %d (n=%d iters=%d victim=%d after=%d): %v", round, n, iters, victim, after, err)
		}
		if res.MaxErr != 0 {
			t.Fatalf("round %d (n=%d iters=%d victim=%d after=%d): MaxErr = %g", round, n, iters, victim, after, res.MaxErr)
		}
	}
}
