package ckpt

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/darray"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/pario"
)

// newMachine builds an np-rank machine over the named transport
// ("chan" or "tcp").
func newMachine(t *testing.T, np int, transport string) *machine.Machine {
	t.Helper()
	if transport == "tcp" {
		tcp, err := msg.NewTCPTransport(np)
		if err != nil {
			t.Fatal(err)
		}
		return machine.New(np, machine.WithTransport(tcp))
	}
	return machine.New(np)
}

// saveOpts runs an SPMD save of one freshly filled block-distributed
// array under the given I/O options.
func saveOpts(t *testing.T, np int, transport, dir string, opts Options, val func(index.Point) float64) error {
	t.Helper()
	m := newMachine(t, np, transport)
	defer m.Close()
	return m.Run(func(ctx *machine.Ctx) error {
		dom := domFor("block")
		a := darray.New(ctx, "A", dom, distFor(ctx, "block", dom, np))
		a.FillFunc(ctx, val)
		if err := ctx.Barrier(); err != nil {
			return err
		}
		_, err := SaveOpts(ctx, dir, []*darray.Array{a}, nil, opts)
		return err
	})
}

// restoreOpts restores onto np ranks over the named transport, verifies
// every element against val bit-exactly, and returns the summed per-rank
// repair count.
func restoreOpts(t *testing.T, np int, transport, dir string, opts Options, val func(index.Point) float64) int {
	t.Helper()
	m := newMachine(t, np, transport)
	defer m.Close()
	repairs := make([]int, np)
	err := m.Run(func(ctx *machine.Ctx) error {
		dom := domFor("block")
		a := darray.New(ctx, "A", dom, nil)
		res, err := RestoreOpts(ctx, dir, []*darray.Array{a}, opts)
		if err != nil {
			return err
		}
		repairs[ctx.Rank()] = res.Repaired
		got, err := a.GatherTo(ctx, 0)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			dom.WholeSection().ForEach(func(p index.Point) bool {
				if want := val(p); got[dom.Offset(p)] != want {
					t.Errorf("[%v] = %v, want %v (bit-exact)", p, got[dom.Offset(p)], want)
					return false
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("restore on %d %s ranks: %v", np, transport, err)
	}
	total := 0
	for _, r := range repairs {
		total += r
	}
	return total
}

func noStagingLeft(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("stale staging dir %s survived the next Save", e.Name())
		}
	}
}

// TestSaveAbortMatrix kills a Save at every distinct stage of its
// write path via persistent injected faults — staging mkdir, rank-file
// write, parity write, manifest write, commit rename — and checks the
// crash-safety contract each time: the failure surfaces on every rank,
// the previously committed epoch is untouched and restores bit-exact,
// and the next clean Save garbage-collects the crash's staging debris
// and commits past it.
func TestSaveAbortMatrix(t *testing.T) {
	stages := []struct {
		name string
		plan string
	}{
		{"mkdir-staging", "eio,op=mkdir,path=.tmp"},
		{"stripe-write", "eio,op=write,path=rank-"},
		{"parity-write", "eio,op=write,path=parity"},
		{"manifest-write", "eio,op=write,path=manifest"},
		{"commit-rename", "eio,op=rename,path=.tmp"},
	}
	for _, st := range stages {
		t.Run(st.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Redundancy: pario.RedundancyParity}
			if err := saveOpts(t, 2, "chan", dir, opts, fill); err != nil {
				t.Fatalf("clean save: %v", err)
			}

			plan, err := pario.ParseFaultPlan(st.plan)
			if err != nil {
				t.Fatal(err)
			}
			ff := pario.NewFaultFS(pario.OS{}, plan)
			faulty := opts
			faulty.FS = ff.Rank
			if err := saveOpts(t, 2, "chan", dir, faulty, fill); err == nil {
				t.Fatalf("save with %s fault reported success", st.name)
			}

			// The aborted epoch is invisible; epoch 0 restores bit-exact.
			if epoch, _, err := LatestEpoch(dir); err != nil || epoch != 0 {
				t.Fatalf("LatestEpoch after abort = %d, %v; want 0", epoch, err)
			}
			restoreOpts(t, 2, "chan", dir, opts, fill)

			// The next clean Save sweeps the debris and commits.
			if err := saveOpts(t, 2, "chan", dir, opts, fill); err != nil {
				t.Fatalf("save after abort: %v", err)
			}
			if epoch, _, err := LatestEpoch(dir); err != nil || epoch != 1 {
				t.Fatalf("post-abort save epoch = %d, %v; want 1", epoch, err)
			}
			noStagingLeft(t, dir)
		})
	}
}

// TestDamageRestoreMatrix is the acceptance matrix: with redundancy,
// deleting, truncating or bit-rotting any single file of the newest
// epoch still restores bit-exact (MaxErr == 0) on both transports, with
// transient injected read faults healed by the retry policy, and the
// damaged file is repaired in place.
func TestDamageRestoreMatrix(t *testing.T) {
	type damage struct {
		name       string
		redundancy string
		file       func(man *Manifest) string
		apply      func(t *testing.T, path string)
		repairs    bool // a rank file was rebuilt and healed
	}
	remove := func(t *testing.T, path string) {
		t.Helper()
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	truncate := func(t *testing.T, path string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rot := func(t *testing.T, path string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x10
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stripe := func(i int) func(*Manifest) string {
		return func(man *Manifest) string { return man.Files[i].Name }
	}
	cases := []damage{
		{"lost-stripe", pario.RedundancyParity, stripe(1), remove, true},
		{"torn-stripe", pario.RedundancyParity, stripe(0), truncate, true},
		{"bitrot-stripe", pario.RedundancyParity, stripe(2), rot, true},
		{"lost-parity", pario.RedundancyParity, func(man *Manifest) string { return man.Parity.Name }, remove, false},
		{"lost-stripe-replica-mode", pario.RedundancyReplica, stripe(1), remove, true},
		{"rotten-replica", pario.RedundancyReplica,
			func(man *Manifest) string { return pario.ReplicaName(man.Files[0].Name) }, rot, false},
	}
	for _, transport := range []string{"chan", "tcp"} {
		for _, tc := range cases {
			t.Run(transport+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				opts := Options{Redundancy: tc.redundancy}
				if err := saveOpts(t, 4, transport, dir, opts, fill); err != nil {
					t.Fatal(err)
				}
				epoch, man, err := LatestEpoch(dir)
				if err != nil || epoch != 0 {
					t.Fatalf("LatestEpoch = %d, %v", epoch, err)
				}
				victim := filepath.Join(filepath.Join(dir, epochDirName(epoch)), tc.file(man))
				tc.apply(t, victim)

				// Restore under a transient injected read fault: the first
				// rank-file read on every rank fails once and heals on retry.
				plan, err := pario.ParseFaultPlan("eio,op=read,path=rank-,count=1")
				if err != nil {
					t.Fatal(err)
				}
				degraded := opts
				degraded.FS = pario.NewFaultFS(pario.OS{}, plan).Rank
				degraded.Retry = msg.RetryPolicy{Timeout: 2 * time.Second, Retries: 2}
				repairs := restoreOpts(t, 4, transport, dir, degraded, fill)
				if tc.repairs && repairs == 0 {
					t.Error("no rank reported a rank-file reconstruction")
				}

				// Self-healing: the restore repaired damaged rank files in
				// place, so a plain Verify of the epoch sees them intact.
				set := man.stripeSet(filepath.Join(dir, epochDirName(epoch)))
				h := set.Verify(pario.Disk{FS: pario.OS{}})
				if !h.Recoverable || len(h.BadStripes) > 0 {
					t.Errorf("epoch not healed after restore: %+v", h)
				}
			})
		}
	}
}

// TestRetention: -ckpt-keep prunes old epochs after a successful commit;
// keep <= 0 keeps everything.
func TestRetention(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Redundancy: pario.RedundancyParity, Keep: 2}
	for i := 0; i < 4; i++ {
		if err := saveOpts(t, 2, "chan", dir, opts, fill); err != nil {
			t.Fatal(err)
		}
	}
	epochs, err := epochsIn(pario.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 2 || epochs[0] != 3 || epochs[1] != 2 {
		t.Fatalf("retained epochs = %v, want [3 2]", epochs)
	}
	restoreOpts(t, 2, "chan", dir, Options{}, fill)

	// Keep-all (the default): nothing pruned.
	dir = t.TempDir()
	opts.Keep = 0
	for i := 0; i < 3; i++ {
		if err := saveOpts(t, 2, "chan", dir, opts, fill); err != nil {
			t.Fatal(err)
		}
	}
	if epochs, _ = epochsIn(pario.OS{}, dir); len(epochs) != 3 {
		t.Fatalf("keep-all retained %v", epochs)
	}
}

// TestEpochFallbackRestoresOlder: when the newest epoch is damaged
// beyond its redundancy, LatestEpoch and Restore fall back to the newest
// verifiably complete one — and restore its values, not the damaged
// epoch's.
func TestEpochFallbackRestoresOlder(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Redundancy: pario.RedundancyNone}
	valA := func(p index.Point) float64 { return 1000 + fill(p) }
	valB := func(p index.Point) float64 { return 2000 + fill(p) }
	if err := saveOpts(t, 2, "chan", dir, opts, valA); err != nil {
		t.Fatal(err)
	}
	if err := saveOpts(t, 2, "chan", dir, opts, valB); err != nil {
		t.Fatal(err)
	}
	if epoch, _, err := LatestEpoch(dir); err != nil || epoch != 1 {
		t.Fatalf("LatestEpoch = %d, %v", epoch, err)
	}
	// No redundancy: losing one rank file makes epoch 1 unusable.
	if err := os.Remove(filepath.Join(filepath.Join(dir, epochDirName(1)), rankFileName(0))); err != nil {
		t.Fatal(err)
	}
	epoch, man, err := LatestEpoch(dir)
	if err != nil || epoch != 0 || man == nil {
		t.Fatalf("LatestEpoch after damage = %d, %v, %v; want 0", epoch, man, err)
	}
	if restoreOpts(t, 2, "chan", dir, opts, valA) != 0 {
		t.Error("fallback restore reported repairs with no redundancy")
	}

	// A stray epoch of the retired format 1 is skipped by its version
	// number exactly as a damaged one is: the fallback still lands on
	// epoch 0.
	strayV1 := func(dir string, epoch int) {
		t.Helper()
		if err := os.MkdirAll(filepath.Join(dir, epochDirName(epoch)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifestPath(filepath.Join(dir, epochDirName(epoch))), []byte(`{"Version": 1, "Epoch": 2, "NP": 2}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	strayV1(dir, 2)
	if epoch, _, err := LatestEpoch(dir); err != nil || epoch != 0 {
		t.Fatalf("LatestEpoch past a format-1 epoch = %d, %v; want 0", epoch, err)
	}
	restoreOpts(t, 2, "chan", dir, opts, valA)
	// Alone in a directory it is no checkpoint at all, and the restore
	// error says which version it found.
	only := t.TempDir()
	strayV1(only, 2)
	if epoch, man, err := LatestEpoch(only); err != nil || epoch != -1 || man != nil {
		t.Fatalf("LatestEpoch of a format-1 epoch = %d, %v, %v; want -1", epoch, man, err)
	}
	m := machine.New(1)
	defer m.Close()
	err = m.Run(func(ctx *machine.Ctx) error {
		_, err := RestoreOpts(ctx, only, []*darray.Array{darray.New(ctx, "A", domFor("block"), nil)}, opts)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "no committed checkpoint") || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("restore of a format-1 epoch = %v, want an error naming the version", err)
	}
}

// afterReadFS runs hook once, right after the first read of a file named
// trigger returns.
type afterReadFS struct {
	pario.FS
	trigger string
	once    sync.Once
	hook    func()
}

func (a *afterReadFS) ReadFile(path string) ([]byte, error) {
	data, err := a.FS.ReadFile(path)
	if filepath.Base(path) == a.trigger {
		a.once.Do(a.hook)
	}
	return data, err
}

// TestRestoreDamageAfterVerify pins what a restore does with a rank file
// damaged after rank 0 verified the epoch (parity.bin is the last file
// Verify reads) and before the ranks read it.  Rank 0's verification is
// the only CRC an intact rank file gets, so a file whose size changed is
// still reconstructed from parity, bit-exact and healed, while a
// same-size bit flip is read as it is: the one value it hits comes back
// with that bit flipped, and nothing is repaired.
func TestRestoreDamageAfterVerify(t *testing.T) {
	const np = 4
	dom := domFor("block")
	saved, err := replay(DistMeta{Dims: []DimMeta{{Kind: "BLOCK"}}, TargetExtents: []int{np}}, dom)
	if err != nil {
		t.Fatal(err)
	}
	var hit index.Point
	saved.LocalGrid(1).ForEach(func(p index.Point) bool { hit = p; return false })
	for _, tc := range []struct {
		name    string
		damage  func(data []byte) []byte
		flipped bool
	}{
		{"resized", func(data []byte) []byte { return data[:len(data)/2] }, false},
		// Byte 24 is the low byte of rank 1's first value: after the
		// 20-byte header and the one array's count word.
		{"bitflip", func(data []byte) []byte { data[24] ^= 1; return data }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := saveOpts(t, np, "chan", dir, Options{}, fill); err != nil {
				t.Fatal(err)
			}
			victim := filepath.Join(filepath.Join(dir, epochDirName(0)), rankFileName(1))
			var damageErr error
			fs := &afterReadFS{FS: pario.OS{}, trigger: parityFileName(), hook: func() {
				data, err := os.ReadFile(victim)
				if err == nil {
					err = os.WriteFile(victim, tc.damage(data), 0o644)
				}
				damageErr = err
			}}
			opts := Options{FS: func(r int) pario.FS {
				if r == 0 {
					return fs
				}
				return pario.OS{}
			}}
			m := machine.New(np)
			defer m.Close()
			repairs := make([]int, np)
			err := m.Run(func(ctx *machine.Ctx) error {
				a := darray.New(ctx, "A", dom, nil)
				res, err := RestoreOpts(ctx, dir, []*darray.Array{a}, opts)
				if err != nil {
					return err
				}
				repairs[ctx.Rank()] = res.Repaired
				got, err := a.GatherTo(ctx, 0)
				if err != nil || ctx.Rank() != 0 {
					return err
				}
				dom.WholeSection().ForEach(func(p index.Point) bool {
					want := fill(p)
					if tc.flipped && dom.Offset(p) == dom.Offset(hit) {
						want = math.Float64frombits(math.Float64bits(want) ^ 1)
					}
					if g := got[dom.Offset(p)]; g != want {
						t.Errorf("[%v] = %v, want %v", p, g, want)
					}
					return true
				})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if damageErr != nil {
				t.Fatal(damageErr)
			}
			total := 0
			for _, r := range repairs {
				total += r
			}
			if tc.flipped != (total == 0) {
				t.Errorf("%d rank-file reconstructions", total)
			}
		})
	}
}
