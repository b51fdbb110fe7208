package apps

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/msg"
	"repro/internal/pario"
)

// degradedIO builds the test I/O options: checkpoints with the given
// redundancy, metrics attached, and a transient injected read fault
// (first rank-file read per rank fails once) healed by the retry policy.
func degradedIO(t *testing.T, redundancy string) (IOConfig, *pario.Metrics) {
	t.Helper()
	plan, err := pario.ParseFaultPlan("eio,op=read,path=rank-,count=1")
	if err != nil {
		t.Fatal(err)
	}
	met := &pario.Metrics{}
	return IOConfig{
		Redundancy: redundancy,
		FS:         pario.NewFaultFS(pario.OS{}, plan).Rank,
		Metrics:    met,
		Retry:      msg.RetryPolicy{Timeout: 2 * time.Second, Retries: 2},
	}, met
}

// epochDir is where internal/ckpt commits epoch n of dir.
func epochDir(dir string, n int) string { return filepath.Join(dir, fmt.Sprintf("epoch-%08d", n)) }

// damageNewest deletes one rank file of the newest committed epoch and
// returns its name.
func damageNewest(t *testing.T, dir string) string {
	t.Helper()
	epoch, man, err := ckpt.LatestEpoch(dir)
	if err != nil || epoch < 0 {
		t.Fatalf("no committed checkpoint (epoch %d, %v)", epoch, err)
	}
	name := man.Files[len(man.Files)/2].Name
	if err := os.Remove(filepath.Join(epochDir(dir, epoch), name)); err != nil {
		t.Fatal(err)
	}
	return name
}

// adiDegraded is the app-level acceptance path: per-iteration striped
// parity checkpoints, one stripe file of the newest epoch deleted, and a
// -recover relaunch that reconstructs the stripe from parity (healing it
// on disk), resumes, and matches the fault-free serial reference
// bit-exactly — on either transport.
func adiDegraded(t *testing.T, useTCP bool) {
	dir := t.TempDir()
	io, met := degradedIO(t, pario.RedundancyParity)
	base := ADIConfig{
		NX: 24, NY: 24, Iters: 6, P: 4, Mode: ADIDynamic,
		Runtime: Runtime{
			UseTCP:  useTCP,
			CkptDir: dir, CkptEvery: 1, IO: io,
		},
	}
	if _, err := RunADI(base); err != nil {
		t.Fatal(err)
	}
	damageNewest(t, dir)

	rec := base
	rec.Recover, rec.Validate = true, true
	res, err := RunADI(rec)
	if err != nil {
		t.Fatalf("degraded recovery run: %v", err)
	}
	if res.ResumedIter < 0 {
		t.Fatal("recovery run did not resume from a checkpoint")
	}
	if res.MaxErr != 0 {
		t.Fatalf("degraded restore deviates from the serial reference: MaxErr = %g, want bit-exact 0", res.MaxErr)
	}
	if met.Reconstructions.Load() == 0 {
		t.Error("no stripe reconstruction was recorded")
	}
	if met.Repairs.Load() == 0 {
		t.Error("the lost stripe was not healed on disk")
	}
	if met.Retries.Load() == 0 {
		t.Error("the injected read faults never exercised the retry policy")
	}
}

func TestADIDegradedRestoreChan(t *testing.T) { adiDegraded(t, false) }
func TestADIDegradedRestoreTCP(t *testing.T)  { adiDegraded(t, true) }

// TestSmoothingDegradedRestore: same drill on the smoothing app (both
// double-buffers restored from a degraded epoch).
func TestSmoothingDegradedRestore(t *testing.T) {
	dir := t.TempDir()
	io, met := degradedIO(t, pario.RedundancyParity)
	base := SmoothConfig{
		N: 20, Steps: 4, P: 4, Mode: SmoothColumns,
		Runtime: Runtime{
			CkptDir: dir, CkptEvery: 1, IO: io,
		},
	}
	if _, err := RunSmoothing(base); err != nil {
		t.Fatal(err)
	}
	damageNewest(t, dir)

	rec := base
	rec.Steps = 7
	rec.Recover, rec.Validate = true, true
	res, err := RunSmoothing(rec)
	if err != nil {
		t.Fatalf("degraded recovery run: %v", err)
	}
	if res.MaxErr > 1e-12 {
		t.Fatalf("MaxErr = %g", res.MaxErr)
	}
	if met.Reconstructions.Load() == 0 {
		t.Error("no stripe reconstruction was recorded")
	}
}

// TestPICDegradedRestoreReplica: replica redundancy on the PIC app — a
// lost stripe is served from its replica, FIELD and COUNT restore
// together (connect class), and particle conservation holds through the
// damage.
func TestPICDegradedRestoreReplica(t *testing.T) {
	dir := t.TempDir()
	io, met := degradedIO(t, pario.RedundancyReplica)
	base := PICConfig{
		NCell: 32, Steps: 4, P: 4, Rebalance: true, RebalanceEvery: 2, InitPerCell: 16,
		Runtime: Runtime{
			CkptDir: dir, CkptEvery: 1, IO: io,
		},
	}
	if _, err := RunPIC(base); err != nil {
		t.Fatal(err)
	}
	damageNewest(t, dir)

	rec := base
	rec.Steps = 8
	rec.Recover = true
	res, err := RunPIC(rec)
	if err != nil {
		t.Fatalf("degraded recovery run: %v", err)
	}
	if res.ParticlesEnd != res.ParticlesStart {
		t.Fatalf("particle conservation violated: %v -> %v", res.ParticlesStart, res.ParticlesEnd)
	}
	if met.Reconstructions.Load() == 0 {
		t.Error("no stripe reconstruction was recorded")
	}
}

// TestDoubleDamageFailsLoudly: damage beyond what redundancy can rebuild
// must surface as an error (after falling back past the ruined epoch to
// an older one if present — here there is exactly one, so the recovery
// errors rather than fabricating state).
func TestDoubleDamageFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	base := ADIConfig{
		NX: 16, NY: 16, Iters: 2, P: 2, Mode: ADIDynamic,
		Runtime: Runtime{
			CkptDir: dir, CkptEvery: 1, IO: IOConfig{Redundancy: pario.RedundancyParity, Keep: 1},
		},
	}
	if _, err := RunADI(base); err != nil {
		t.Fatal(err)
	}
	epoch, man, err := ckpt.LatestEpoch(dir)
	if err != nil || epoch < 0 {
		t.Fatal(err)
	}
	for _, name := range []string{man.Files[0].Name, man.Files[1].Name} {
		if err := os.Remove(filepath.Join(epochDir(dir, epoch), name)); err != nil {
			t.Fatal(err)
		}
	}
	rec := base
	rec.Recover = true
	if _, err := RunADI(rec); err == nil {
		t.Fatal("recovery from a doubly-damaged sole epoch must fail, not fabricate state")
	}
}
