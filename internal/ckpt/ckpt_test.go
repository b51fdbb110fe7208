package ckpt

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
)

// fill gives every point a value with a full-width float64 mantissa, so
// bit-identity failures cannot hide behind round numbers.
func fill(p index.Point) float64 {
	v := 1.0
	for k, i := range p {
		v += math.Sin(float64(i*(k+3))) * math.Exp(float64(k))
	}
	return v
}

// distFor builds the distribution named by kind for the given domain on
// the machine behind ctx, over np processors arranged per kind.
func distFor(ctx *machine.Ctx, kind string, dom index.Domain, np int) *dist.Distribution {
	m := ctx.Machine()
	switch kind {
	case "block":
		tg := m.ProcsDim("$T"+kind, np).Whole()
		return dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg)
	case "cyclic":
		tg := m.ProcsDim("$T"+kind, np).Whole()
		return dist.MustNew(dist.NewType(dist.CyclicDim(3)), dom, tg)
	case "bblock":
		tg := m.ProcsDim("$T"+kind, np).Whole()
		// General block: explicit segment upper bounds, one per processor.
		n := dom.Extent(0)
		bounds := make([]int, np)
		used := 0
		for i := 0; i < np; i++ {
			seg := (n - used) / (np - i)
			if i%2 == 0 && seg > 1 {
				seg-- // deliberately uneven
			}
			used += seg
			bounds[i] = dom.Lo[0] + used - 1
		}
		bounds[np-1] = dom.Hi[0]
		return dist.MustNew(dist.NewType(dist.BBlockDim(bounds...)), dom, tg)
	case "block2d":
		ext := balancedExtents(np, 2)
		tg := m.ProcsDim("$T"+kind, ext...).Whole()
		return dist.MustNew(dist.NewType(dist.BlockDim(), dist.BlockDim()), dom, tg)
	case "replicated":
		// Distribute dim 0 over the first target dimension; the second
		// target dimension replicates every block.
		ext := balancedExtents(np, 2)
		tg := m.ProcsDim("$T"+kind, ext...).Whole()
		return dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), dom, tg)
	}
	panic("unknown kind " + kind)
}

func domFor(kind string) index.Domain {
	switch kind {
	case "block2d", "replicated":
		return index.Dim(13, 9)
	default:
		return index.Dim(29)
	}
}

// saveOn runs an SPMD save of one freshly filled array.
func saveOn(t testing.TB, np int, dir, kind string, meta map[string]string) {
	t.Helper()
	m := machine.New(np)
	defer m.Close()
	err := m.Run(func(ctx *machine.Ctx) error {
		dom := domFor(kind)
		a := darray.New(ctx, "A", dom, distFor(ctx, kind, dom, np))
		a.FillFunc(ctx, fill)
		if err := ctx.Barrier(); err != nil {
			return err
		}
		_, err := SaveOpts(ctx, dir, []*darray.Array{a}, meta, Options{})
		return err
	})
	if err != nil {
		t.Fatalf("save on %d ranks: %v", np, err)
	}
}

// restoreOn restores onto np ranks and verifies every element against
// fill; wantResized asserts the shrink path was (or was not) taken.
func restoreOn(t *testing.T, np int, dir, kind string, wantResized bool) {
	t.Helper()
	m := machine.New(np)
	defer m.Close()
	err := m.Run(func(ctx *machine.Ctx) error {
		dom := domFor(kind)
		a := darray.New(ctx, "A", dom, nil)
		res, err := RestoreOpts(ctx, dir, []*darray.Array{a}, Options{})
		if err != nil {
			return err
		}
		if res.Resized != wantResized {
			t.Errorf("Resized = %v, want %v", res.Resized, wantResized)
		}
		got, err := a.GatherTo(ctx, 0)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			dom.WholeSection().ForEach(func(p index.Point) bool {
				want := fill(p)
				if g := got[dom.Offset(p)]; g != want {
					t.Errorf("kind %s np %d: [%v] = %v, want %v (bit-exact)", kind, np, p, g, want)
					return false
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("restore on %d ranks: %v", np, err)
	}
}

// TestRoundTripAllKinds checkpoints every distribution kind on 4 ranks
// and restores it (a) on the same 4 ranks — which must be the
// bit-identical fast path — and (b) on fewer ranks, exercising elastic
// shrink-recovery with grid intersection.
func TestRoundTripAllKinds(t *testing.T) {
	for _, kind := range []string{"block", "cyclic", "bblock", "block2d", "replicated"} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			saveOn(t, 4, dir, kind, nil)
			restoreOn(t, 4, dir, kind, false)
			for _, np := range []int{3, 2, 1} {
				restoreOn(t, np, dir, kind, true)
			}
		})
	}
}

// TestRestoreOntoMoreRanks: expand-recovery — a checkpoint saved on
// fewer ranks re-factors onto the larger machine, so every rank of the
// grown view owns a share of the data (rather than replaying the old
// arrangement and leaving the new ranks empty).
func TestRestoreOntoMoreRanks(t *testing.T) {
	for _, kind := range []string{"block", "cyclic", "bblock", "block2d"} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			saveOn(t, 2, dir, kind, nil)
			restoreOn(t, 4, dir, kind, true)
		})
	}

	// The values survive bit-exactly (restoreOn checks); additionally the
	// re-factored distribution must put data on the grown ranks.
	dir := t.TempDir()
	saveOn(t, 2, dir, "block", nil)
	m := machine.New(4)
	defer m.Close()
	owned := make([]int, 4)
	err := m.Run(func(ctx *machine.Ctx) error {
		dom := domFor("block")
		a := darray.New(ctx, "A", dom, nil)
		if _, err := RestoreOpts(ctx, dir, []*darray.Array{a}, Options{}); err != nil {
			return err
		}
		owned[ctx.Rank()] = a.Local(ctx).Count()
		return ctx.Barrier()
	})
	if err != nil {
		t.Fatalf("restore on 4 ranks: %v", err)
	}
	for r, n := range owned {
		if n == 0 {
			t.Errorf("rank %d owns no data after expand-recovery (owned=%v)", r, owned)
		}
	}
}

// TestMetaRoundTrip: caller state stored at save time is visible to the
// recovering run.
func TestMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	saveOn(t, 2, dir, "block", map[string]string{"iter": "7"})
	epoch, man, err := LatestEpoch(dir)
	if err != nil || epoch != 0 || man == nil {
		t.Fatalf("LatestEpoch = %d, %v, %v", epoch, man, err)
	}
	if it, ok := man.MetaInt("iter"); !ok || it != 7 {
		t.Fatalf("MetaInt(iter) = %d, %v", it, ok)
	}
	if man.NP != 2 || len(man.Arrays) != 1 {
		t.Fatalf("manifest shape: %+v", man)
	}
	if len(man.Files) != 2 || man.Redundancy != "parity" || man.Parity == nil {
		t.Fatalf("file map: %+v", man)
	}
}

// TestEpochsAccumulate: repeated saves commit increasing epochs and
// restore picks the newest.
func TestEpochsAccumulate(t *testing.T) {
	dir := t.TempDir()
	m := machine.New(2)
	defer m.Close()
	err := m.Run(func(ctx *machine.Ctx) error {
		dom := index.Dim(10)
		a := darray.New(ctx, "A", dom, distFor(ctx, "block", dom, 2))
		for it := 0; it < 3; it++ {
			a.FillFunc(ctx, func(p index.Point) float64 { return float64(100*it + p[0]) })
			if err := ctx.Barrier(); err != nil {
				return err
			}
			epoch, err := SaveOpts(ctx, dir, []*darray.Array{a}, nil, Options{})
			if err != nil {
				return err
			}
			if epoch != it {
				t.Errorf("epoch = %d, want %d", epoch, it)
			}
		}
		// Overwrite, then restore: values must come from the last save.
		a.Fill(ctx, -1)
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if _, err := RestoreOpts(ctx, dir, []*darray.Array{a}, Options{}); err != nil {
			return err
		}
		got, err := a.GatherTo(ctx, 0)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			for i, v := range got {
				if want := float64(200 + i + 1); v != want {
					t.Errorf("got[%d] = %v, want %v", i, v, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCorruptFileRejected: damage beyond what redundancy can rebuild (a
// rank file AND the parity file) must make the epoch invisible — a
// bit-rotted checkpoint is never silently restored.
func TestCorruptFileRejected(t *testing.T) {
	dir := t.TempDir()
	saveOn(t, 2, dir, "block", nil)
	for _, name := range []string{rankFileName(1), parityFileName()} {
		path := filepath.Join(dir, epochDirName(0), name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if epoch, _, err := LatestEpoch(dir); err != nil || epoch != -1 {
		t.Fatalf("LatestEpoch sees unrecoverable epoch: %d, %v", epoch, err)
	}
	m := machine.New(1)
	defer m.Close()
	err := m.Run(func(ctx *machine.Ctx) error {
		a := darray.New(ctx, "A", domFor("block"), nil)
		_, err := RestoreOpts(ctx, dir, []*darray.Array{a}, Options{})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "no committed checkpoint") {
		t.Fatalf("corrupt restore err = %v, want no usable checkpoint", err)
	}
}

// TestInterruptedCheckpointInvisible: an epoch that never reached its
// commit rename (a stale .tmp directory, as left by a crash mid-write)
// must be invisible to LatestEpoch and Restore, and a later Save must
// commit past it.
func TestInterruptedCheckpointInvisible(t *testing.T) {
	dir := t.TempDir()
	saveOn(t, 2, dir, "block", nil) // epoch 0, committed

	// Simulate a crash: a fully written but never renamed epoch 1.
	staging := filepath.Join(dir, stagingDirName(1))
	if err := os.MkdirAll(staging, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{rankFileName(0), rankFileName(1), "manifest.json"} {
		if err := os.WriteFile(filepath.Join(staging, f), []byte("partial garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// And a committed-looking epoch whose manifest is damaged.
	damaged := filepath.Join(dir, epochDirName(2))
	if err := os.MkdirAll(damaged, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath(damaged), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	epoch, man, err := LatestEpoch(dir)
	if err != nil || epoch != 0 || man == nil {
		t.Fatalf("LatestEpoch sees interrupted state: %d, %v, %v", epoch, man, err)
	}
	restoreOn(t, 2, dir, "block", false) // still restores committed epoch 0

	// The next save must move past the junk, not resurrect it.
	saveOn(t, 2, dir, "block", nil)
	epoch, _, err = LatestEpoch(dir)
	if err != nil || epoch != 3 {
		t.Fatalf("post-junk save epoch = %d, %v; want 3", epoch, err)
	}
}

// TestEmptyDirRestoreFails: restoring from a directory with no committed
// checkpoint is an error on every rank, not a hang or a partial fill.
func TestEmptyDirRestoreFails(t *testing.T) {
	m := machine.New(2)
	defer m.Close()
	err := m.Run(func(ctx *machine.Ctx) error {
		a := darray.New(ctx, "A", index.Dim(8), nil)
		_, err := RestoreOpts(ctx, t.TempDir(), []*darray.Array{a}, Options{})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "no committed checkpoint") {
		t.Fatalf("err = %v", err)
	}
}

// TestUndistributedSaveFails: checkpointing an array before association
// is a deterministic error.
func TestUndistributedSaveFails(t *testing.T) {
	m := machine.New(2)
	defer m.Close()
	err := m.Run(func(ctx *machine.Ctx) error {
		a := darray.New(ctx, "A", index.Dim(8), nil)
		_, err := SaveOpts(ctx, t.TempDir(), []*darray.Array{a}, nil, Options{})
		if err == nil || !strings.Contains(err.Error(), "no distribution") {
			t.Errorf("err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDomainMismatchRejected: restoring into an array with different
// bounds must fail loudly.
func TestDomainMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	saveOn(t, 2, dir, "block", nil)
	m := machine.New(2)
	defer m.Close()
	err := m.Run(func(ctx *machine.Ctx) error {
		a := darray.New(ctx, "A", index.Dim(7), nil) // checkpoint has 29
		_, err := RestoreOpts(ctx, dir, []*darray.Array{a}, Options{})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "domain") {
		t.Fatalf("err = %v", err)
	}
}

// TestBalancedExtents: the re-factorization helper must preserve the
// product and stay as square as it can.
func TestBalancedExtents(t *testing.T) {
	for _, tc := range []struct {
		np, nd int
		want   []int
	}{
		{4, 2, []int{2, 2}},
		{6, 2, []int{2, 3}},
		{3, 2, []int{1, 3}},
		{1, 2, []int{1, 1}},
		{8, 3, []int{2, 2, 2}},
		{7, 2, []int{1, 7}},
		{12, 2, []int{3, 4}},
	} {
		got := balancedExtents(tc.np, tc.nd)
		prod := 1
		for _, e := range got {
			prod *= e
		}
		if prod != tc.np {
			t.Errorf("balancedExtents(%d,%d) = %v: product %d", tc.np, tc.nd, got, prod)
		}
		if len(tc.want) > 0 && !slices.Equal(got, tc.want) {
			t.Errorf("balancedExtents(%d,%d) = %v, want %v", tc.np, tc.nd, got, tc.want)
		}
	}
}

// TestVirtualTargetMatchesProcSection: the replay target must agree with
// the live machine's coordinate model, or restored ownership would not
// line up with what was saved.
func TestVirtualTargetMatchesProcSection(t *testing.T) {
	m := machine.New(6)
	defer m.Close()
	if err := m.Run(func(ctx *machine.Ctx) error {
		if ctx.Rank() != 0 {
			return nil
		}
		real := ctx.Machine().ProcsDim("$V", 2, 3).Whole()
		virt := virtualTarget{ext: []int{2, 3}}
		if virt.Size() != real.Size() || virt.NDims() != real.NDims() {
			t.Error("shape mismatch")
		}
		for r := 0; r < real.Size(); r++ {
			rc, ok1 := real.CoordsOf(r)
			vc, ok2 := virt.CoordsOf(r)
			if ok1 != ok2 || !slices.Equal(rc, vc) {
				t.Errorf("rank %d: real coords %v(%v), virtual %v(%v)", r, rc, ok1, vc, ok2)
			}
			if virt.RankOf(vc) != r {
				t.Errorf("rank %d: RankOf(CoordsOf) = %d", r, virt.RankOf(vc))
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
