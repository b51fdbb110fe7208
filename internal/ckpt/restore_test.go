package ckpt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/pario"
)

// readLog is an FS that logs, per rank, the base name of every file read.
type readLog struct {
	pario.FS
	rank int
	mu   *sync.Mutex
	log  map[int][]string
}

func (l readLog) ReadFile(path string) ([]byte, error) {
	l.mu.Lock()
	l.log[l.rank] = append(l.log[l.rank], filepath.Base(path))
	l.mu.Unlock()
	return l.FS.ReadFile(path)
}

// TestRestoreReadsOwnFile: a restore reads exactly the saved rank files
// whose grids meet what a rank now owns.  A (BLOCK,:) grid saved on 4
// ranks and restored on 4 costs every rank its own file only, on top of
// rank 0's verify pass (the manifest, every rank file and the parity).
// Restored on 3 or 5 ranks, each rank reads the saved files its new
// block spans, in closed form below.  pario.Metrics counts the same
// reads and bytes.
func TestRestoreReadsOwnFile(t *testing.T) {
	const saved = 4
	dom := index.Dim(13, 9)
	rowsBlocked := dist.NewType(dist.BlockDim(), dist.ElidedDim())
	dir := t.TempDir()
	m := machine.New(saved)
	err := m.Run(func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("$R", saved).Whole()
		a := darray.New(ctx, "V", dom, dist.MustNew(rowsBlocked, dom, tg))
		a.FillFunc(ctx, fill)
		_, err := SaveOpts(ctx, dir, []*darray.Array{a}, nil, Options{})
		return err
	})
	m.Close()
	if err != nil {
		t.Fatal(err)
	}
	_, man, err := LatestEpoch(dir)
	if err != nil || man == nil {
		t.Fatalf("LatestEpoch: %v", err)
	}
	raw, err := os.ReadFile(manifestPath(filepath.Join(dir, epochDirName(0))))
	if err != nil {
		t.Fatal(err)
	}
	verify, verifyBytes := []string{"manifest.json"}, int64(len(raw))
	for _, fm := range man.Files {
		verify, verifyBytes = append(verify, fm.Name), verifyBytes+fm.Size
	}
	verify, verifyBytes = append(verify, man.Parity.Name), verifyBytes+man.Parity.Size

	n := dom.Extent(0)
	b := (n + saved - 1) / saved // rows per saved rank file
	for _, np := range []int{4, 3, 5} {
		// Rank q of a BLOCK over np ranks owns rows lo..hi (0-based), with
		// lo = q⌈n/np⌉ and hi = min(lo + ⌈n/np⌉, n) − 1, and those rows sit
		// in saved files ⌊lo/b⌋ … ⌊hi/b⌋.
		want := make([][]string, np)
		wantOps, wantBytes := int64(len(verify)), verifyBytes
		bn := (n + np - 1) / np
		for q := range want {
			if q == 0 {
				want[q] = slices.Clone(verify)
			}
			lo, hi := q*bn, min((q+1)*bn, n)-1
			for r := lo / b; lo <= hi && r <= hi/b; r++ {
				want[q] = append(want[q], rankFileName(r))
				wantOps, wantBytes = wantOps+1, wantBytes+man.Files[r].Size
			}
		}

		met := &pario.Metrics{}
		var mu sync.Mutex
		got := map[int][]string{}
		opts := Options{
			Metrics: met,
			FS:      func(r int) pario.FS { return readLog{pario.OS{}, r, &mu, got} },
		}
		m := machine.New(np)
		err := m.Run(func(ctx *machine.Ctx) error {
			a := darray.New(ctx, "V", dom, nil)
			res, err := RestoreOpts(ctx, dir, []*darray.Array{a}, opts)
			if err != nil {
				return err
			}
			if res.Resized != (np != saved) {
				t.Errorf("np=%d: Resized = %v", np, res.Resized)
			}
			vals, err := a.GatherTo(ctx, 0)
			if err != nil || ctx.Rank() != 0 {
				return err
			}
			dom.WholeSection().ForEach(func(p index.Point) bool {
				if v := vals[dom.Offset(p)]; v != fill(p) {
					t.Errorf("np=%d: [%v] = %v, want %v", np, p, v, fill(p))
					return false
				}
				return true
			})
			return nil
		})
		m.Close()
		if err != nil {
			t.Fatalf("restore on %d ranks: %v", np, err)
		}
		for q := range want {
			if !slices.Equal(got[q], want[q]) {
				t.Errorf("np=%d rank %d read %v, want %v", np, q, got[q], want[q])
			}
		}
		if met.ReadOps.Load() != wantOps || met.BytesRead.Load() != wantBytes {
			t.Errorf("np=%d: %d reads of %d bytes, want %d of %d",
				np, met.ReadOps.Load(), met.BytesRead.Load(), wantOps, wantBytes)
		}
	}
}

// warmSaveAllocs bounds TestSaveWarmAllocs; it may only shrink.
// Measured: 168 (192-200 under -race, whose sync.Pool drops some puts);
// 511 while every save replayed its descriptors and named its I/O spans,
// 638 before that, and 1149 through the stripe exchange.
const warmSaveAllocs = 212

// TestSaveWarmAllocs: a warm 4-rank parity save on chan allocates at most
// warmSaveAllocs, counted over the whole process — all four ranks and
// their I/O servers — per save.
func TestSaveWarmAllocs(t *testing.T) {
	const np, runs = 4, 20
	dir := t.TempDir()
	m := machine.New(np)
	defer m.Close()
	var perSave float64
	err := m.Run(func(ctx *machine.Ctx) error {
		arrays := exchangeArrays(ctx, np)
		var failed error
		save := func() {
			if _, err := SaveOpts(ctx, dir, arrays, nil, Options{Keep: 2}); err != nil && failed == nil {
				failed = err
			}
		}
		save() // creates the directory, fills the buffer pool
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			perSave = testing.AllocsPerRun(runs, save)
		} else {
			for i := 0; i < runs+1; i++ { // AllocsPerRun adds one warm-up call
				save()
			}
		}
		return failed
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("warm save: %.1f allocs (all ranks)", perSave)
	if perSave > warmSaveAllocs {
		t.Errorf("warm 4-rank parity save: %.1f allocs, want <= %d", perSave, warmSaveAllocs)
	}
}

// FuzzManifest: whatever the bytes, the restore broadcast's decoder
// either returns a plan a restore can act on — NP rank files, well-formed
// domains, distributions that replay — or an error; it never panics.  The
// corpus starts from manifests the saves here write.
func FuzzManifest(f *testing.F) {
	dir := f.TempDir()
	for i, c := range []struct {
		np   int
		kind string
	}{{2, "block"}, {4, "replicated"}, {3, "bblock"}, {4, "cyclic"}, {4, "block2d"}} {
		sub := filepath.Join(dir, c.kind+string(rune('0'+i)))
		saveOn(f, c.np, sub, c.kind, map[string]string{"iter": "3"})
		raw, err := os.ReadFile(manifestPath(filepath.Join(sub, epochDirName(0))))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"Version":3,"NP":1,"Files":[{"Rank":0,"Name":"rank-0000.bin"}],"Bad":[0]}`))
	f.Add([]byte(`{"Version":3,"NP":1,"Files":[{"Name":"rank-0000.bin"}],"Arrays":[{"Name":"A","Lo":[1],"Hi":[9],"Dist":{"Dims":[{"Kind":"B_BLOCK","Bounds":[9]}],"TargetExtents":[1]}}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		plan, err := decodePlan(b)
		if err != nil {
			return
		}
		if plan.NP < 1 || len(plan.Files) != plan.NP {
			t.Fatalf("accepted %d rank files for NP=%d", len(plan.Files), plan.NP)
		}
		for _, am := range plan.Arrays {
			dom, err := domainOf(am)
			if err != nil {
				t.Fatalf("accepted array %s: %v", am.Name, err)
			}
			if _, err := replay(am.Dist, dom); err != nil {
				t.Fatalf("accepted array %s: %v", am.Name, err)
			}
		}
		// A plan that decoded survives its own round trip.
		again, err := json.Marshal(plan)
		if err == nil {
			_, err = decodePlan(again)
		}
		if err != nil {
			t.Fatalf("re-encoded plan fails: %v", err)
		}
	})
}
