package apps

import (
	"fmt"
	"testing"
	"time"
)

// withDepth forces the halo depth for the rest of the test.
func withDepth(t *testing.T, k int) {
	t.Helper()
	testDepth = k
	t.Cleanup(func() { testDepth = 0 })
}

// haloTraffic is claim C1 at depth k in closed form: the busiest
// processor's data messages and bytes per step when every block of k
// steps exchanges, per neighbour, a face of k layers — dimension 1's
// spanning the margins of dimension 0 (its corners) once k > 1.  The
// grid is N×N over BLOCK segments (ceil(N/e), the last one short) on e0×e1
// processors (e0 = 1 for columns).
func haloTraffic(n, e0, e1, k int) (msgs, bytes float64) {
	seg := func(e, c int) int {
		bs := (n + e - 1) / e
		return min(bs, n-c*bs)
	}
	nbs := func(e, c int) int {
		nb := 0
		if c > 0 {
			nb++
		}
		if c < e-1 {
			nb++
		}
		return nb
	}
	for c0 := 0; c0 < e0; c0++ {
		for c1 := 0; c1 < e1; c1++ {
			nb0, nb1 := nbs(e0, c0), nbs(e1, c1)
			face1 := seg(e0, c0)
			if k > 1 {
				face1 += nb0 * k
			}
			msgs = max(msgs, float64(nb0+nb1)/float64(k))
			bytes = max(bytes, float64(8*(nb0*seg(e1, c1)+nb1*face1)))
		}
	}
	return msgs, bytes
}

// TestSmoothingDepthBitIdenticalCounts: with the halo depth forced to
// k ∈ {1, 2, 3, 5}, smoothing on columns (P = 4), 2×2 and 3×3 blocks,
// uneven N, on both transports, matches the serial reference bit for bit
// and moves exactly claim C1's traffic at depth k: m/k messages a step
// for m neighbours, and the closed-form bytes with their corner terms.
func TestSmoothingDepthBitIdenticalCounts(t *testing.T) {
	grids := []struct {
		mode   SmoothMode
		p      int
		e0, e1 int
	}{
		{SmoothColumns, 4, 1, 4},
		{SmoothBlock2D, 4, 2, 2},
		{SmoothBlock2D, 9, 3, 3},
	}
	for _, k := range []int{1, 2, 3, 5} {
		withDepth(t, k)
		for _, g := range grids {
			for _, n := range []int{47, 50} {
				wantMsgs, wantBytes := haloTraffic(n, g.e0, g.e1, k)
				for _, tcp := range []bool{false, true} {
					name := fmt.Sprintf("k=%d/%v/P=%d/N=%d/tcp=%v", k, g.mode, g.p, n, tcp)
					res, err := RunSmoothing(SmoothConfig{
						N: n, Steps: 2 * k, P: g.p, Mode: g.mode, Validate: true,
						Runtime: Runtime{UseTCP: tcp},
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.MaxErr != 0 || res.Depth != k {
						t.Errorf("%s: MaxErr %g at depth %d, want 0 at %d", name, res.MaxErr, res.Depth, k)
					}
					if res.MsgsPerProcStep != wantMsgs || res.BytesPerProcStep != wantBytes {
						t.Errorf("%s: %v msgs, %v bytes a step; want %v, %v",
							name, res.MsgsPerProcStep, res.BytesPerProcStep, wantMsgs, wantBytes)
					}
				}
			}
		}
	}
}

// TestSmoothingDepthFromModel: the run takes its depth from the §4 model
// when one is attached — the benchmark's configuration picks k = 5 on
// both its grid sizes, so a step costs 0.4 messages and 16 424 bytes —
// and keeps k = 1 without one.
func TestSmoothingDepthFromModel(t *testing.T) {
	for _, n := range []int{2048, 2054} {
		if k := SmoothDepth(SmoothBlock2D, n, 4, 1e-4, 1e-8); k != 5 {
			t.Errorf("N=%d: SmoothDepth = %d, want 5", n, k)
		}
	}
	if k := SmoothDepth(SmoothBlock2D, 2048, 4, 0, 0); k != 1 {
		t.Errorf("no model: SmoothDepth = %d, want 1", k)
	}
	// The clamp: 3×3 blocks of 10 points are 4, 4 and 2 wide.
	if k := SmoothDepth(SmoothBlock2D, 10, 9, 1e-3, 1e-9); k > 2 {
		t.Errorf("N=10 on 3x3: SmoothDepth = %d, deeper than the thinnest segment", k)
	}
	res, err := RunSmoothing(SmoothConfig{N: 256, Steps: 10, P: 4, Mode: SmoothBlock2D,
		Alpha: 1e-4, Beta: 1e-8, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	want := SmoothDepth(SmoothBlock2D, 256, 4, 1e-4, 1e-8)
	if res.Depth != want || want == 1 || res.MaxErr != 0 {
		t.Errorf("modelled run: depth %d (model %d), MaxErr %g; want the model's depth > 1 and 0", res.Depth, want, res.MaxErr)
	}
	plain, err := RunSmoothing(SmoothConfig{N: 256, Steps: 10, P: 4, Mode: SmoothBlock2D})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Depth != 1 || plain.MsgsPerProcStep != 2 || plain.Checksum != res.Checksum {
		t.Errorf("no model: depth %d, %v msgs a step, checksum %v; want 1, 2, %v",
			plain.Depth, plain.MsgsPerProcStep, plain.Checksum, res.Checksum)
	}
}

// TestOnlineRecoverSmoothingDepth: a depth-5 overlapped run checkpoints
// after every third step, so every checkpoint falls inside a block (steps
// 3, 6, 9 and 12 are none of 0, 5 and 10), and loses a rank around step
// 11.  The survivors replay the last committed checkpoint and start a
// fresh block there on their own view; the grid still ends bit for bit
// the serial one.
func TestOnlineRecoverSmoothingDepth(t *testing.T) {
	withDepth(t, 5)
	cfg := SmoothConfig{
		N: 24, Steps: 14, P: 4, Mode: SmoothColumns, Validate: true,
		Runtime: Runtime{
			CkptEvery:     3,
			CommTimeout:   150 * time.Millisecond,
			CommRetries:   2,
			OnlineRecover: true,
		},
	}
	after := killAfter(t, 1, 11, 0, func() error {
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
		t.Fatalf("online depth-5 smoothing recovery: %v", err)
	}
	if res.FinalEpoch < 1 {
		t.Fatalf("run finished on epoch %d: kill never landed", res.FinalEpoch)
	}
	if res.ResumedIter < 0 || (res.ResumedIter+1)%5 == 0 || res.Depth != 5 {
		t.Errorf("resumed after iteration %d at depth %d; want a mid-block replay at depth 5", res.ResumedIter, res.Depth)
	}
	if res.MaxErr != 0 {
		t.Fatalf("MaxErr = %g after online recovery", res.MaxErr)
	}
}
