package apps

import (
	"fmt"
	"testing"
	"time"
)

// TestSmoothingOverlapBitIdentical: the overlapped step (interior while
// halos fly, edges after Wait) partitions the owned region over
// smoothRect's arithmetic, so it must agree bit for bit with the serial
// reference — on both distributions and both transports.
func TestSmoothingOverlapBitIdentical(t *testing.T) {
	for _, mode := range []SmoothMode{SmoothColumns, SmoothBlock2D} {
		for _, tcp := range []bool{false, true} {
			name := mode.String()
			if tcp {
				name += "/tcp"
			}
			t.Run(name, func(t *testing.T) {
				res, err := RunSmoothing(SmoothConfig{N: 33, Steps: 3, P: 9, Mode: mode, Validate: true, Runtime: Runtime{UseTCP: tcp}})
				if err != nil {
					t.Fatal(err)
				}
				if res.MaxErr != 0 {
					t.Errorf("overlap deviates from serial by %g", res.MaxErr)
				}
			})
		}
	}
}

// TestSmoothingOverlapMessageCounts: the overlapped loop moves claim C1's
// counts, measured as a whole-phase total over a barrier-free loop.
func TestSmoothingOverlapMessageCounts(t *testing.T) {
	const n, p = 64, 4
	cols, err := RunSmoothing(SmoothConfig{N: n, Steps: 3, P: p, Mode: SmoothColumns})
	if err != nil {
		t.Fatal(err)
	}
	if cols.MsgsPerProcStep != 2 {
		t.Fatalf("columns msgs/proc/step = %v, want 2", cols.MsgsPerProcStep)
	}
	if cols.BytesPerProcStep != 2*8*n {
		t.Fatalf("columns bytes/proc/step = %v, want %d", cols.BytesPerProcStep, 2*8*n)
	}
	const n2, p2, q2 = 63, 9, 3
	blk, err := RunSmoothing(SmoothConfig{N: n2, Steps: 3, P: p2, Mode: SmoothBlock2D})
	if err != nil {
		t.Fatal(err)
	}
	if blk.MsgsPerProcStep != 4 {
		t.Fatalf("block msgs/proc/step = %v, want 4", blk.MsgsPerProcStep)
	}
	if blk.BytesPerProcStep != 4*8*n2/q2 {
		t.Fatalf("block bytes/proc/step = %v, want %d", blk.BytesPerProcStep, 4*8*n2/q2)
	}
}

// TestSmoothingOverlapUnevenHalos: uneven B_BLOCK-style segments — width-1
// column strips and a 10-point grid on a 3x3 arrangement — where some
// interiors degenerate to nothing and the edge strips carry the whole
// sweep.
func TestSmoothingOverlapUnevenHalos(t *testing.T) {
	cases := []SmoothConfig{
		{N: 13, Steps: 3, P: 9, Mode: SmoothColumns, Validate: true},
		{N: 10, Steps: 3, P: 9, Mode: SmoothBlock2D, Validate: true},
		{N: 9, Steps: 2, P: 9, Mode: SmoothColumns, Validate: true},
	}
	for _, cfg := range cases {
		res, err := RunSmoothing(cfg)
		if err != nil {
			t.Fatalf("N=%d %v: %v", cfg.N, cfg.Mode, err)
		}
		if res.MaxErr > 1e-12 {
			t.Errorf("N=%d %v: overlap deviates from serial by %g", cfg.N, cfg.Mode, res.MaxErr)
		}
	}
}

// TestSmoothingOddWidthsBitIdentical: grids whose row spans have every
// length mod 4, so the row kernel's vector body, its scalar tail and the
// overlapped step's one-point-wide edge strips all run, against the
// serial reference (kernels.Smooth5, which shares none of that code).
func TestSmoothingOddWidthsBitIdentical(t *testing.T) {
	for _, n := range []int{61, 62, 63} {
		for _, mode := range []SmoothMode{SmoothColumns, SmoothBlock2D} {
			res, err := RunSmoothing(SmoothConfig{N: n, Steps: 4, P: 4, Mode: mode, Validate: true})
			if err != nil {
				t.Fatalf("N=%d %v: %v", n, mode, err)
			}
			if res.MaxErr != 0 {
				t.Errorf("N=%d %v: deviates from serial by %g", n, mode, res.MaxErr)
			}
		}
	}
}

// TestOnlineRecoverSmoothingOverlap: a rank dies while the barrier-free
// overlapped loop is in flight; the counted put/await streams surface the
// failure as wrapped errors, the survivors regroup, and the re-run from
// the last checkpoint still matches the serial reference.  Windows from
// the failed epoch are revoked with the view — no stale-tag traffic leaks
// into the survivor epoch.
func TestOnlineRecoverSmoothingOverlap(t *testing.T) {
	cfg := SmoothConfig{
		N: 24, Steps: 8, P: 4, Mode: SmoothColumns, Validate: true,
		Runtime: Runtime{
			CkptEvery:     1,
			CommTimeout:   150 * time.Millisecond,
			CommRetries:   2,
			OnlineRecover: true,
		},
	}
	after := killAfter(t, 1, 4, 0, func() error {
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
		t.Fatalf("online overlapped smoothing recovery: %v", err)
	}
	if res.FinalEpoch < 1 {
		t.Fatalf("run finished on epoch %d: kill never landed", res.FinalEpoch)
	}
	if res.MaxErr > 1e-12 {
		t.Fatalf("MaxErr = %g after online recovery", res.MaxErr)
	}
}
