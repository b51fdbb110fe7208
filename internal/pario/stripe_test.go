package pario

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// writeSet materializes a stripe set on disk and returns its metadata.
func writeSet(t *testing.T, dir, redundancy string, stripes ...[]byte) StripeSet {
	t.Helper()
	set := StripeSet{Dir: dir, Redundancy: redundancy}
	maxLen := 0
	for _, d := range stripes {
		maxLen = max(maxLen, len(d))
	}
	parity := make([]byte, maxLen)
	for i, d := range stripes {
		name := filepath.Join(dir, stripeName(i))
		if err := os.WriteFile(name, d, 0o644); err != nil {
			t.Fatal(err)
		}
		set.Stripes = append(set.Stripes, StripeInfo{Name: stripeName(i), Size: int64(len(d)), CRC: crc32.ChecksumIEEE(d)})
		XorInto(parity, d)
		if redundancy == RedundancyReplica {
			if err := os.WriteFile(ReplicaName(name), d, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if redundancy == RedundancyParity {
		if err := os.WriteFile(filepath.Join(dir, "parity.bin"), parity, 0o644); err != nil {
			t.Fatal(err)
		}
		set.Parity = &StripeInfo{Name: "parity.bin", Size: int64(len(parity)), CRC: crc32.ChecksumIEEE(parity)}
	}
	return set
}

func stripeName(i int) string { return fmt.Sprintf("stripe-%04d.bin", i) }

func corrupt(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestParityReconstructAndRepair(t *testing.T) {
	dir := t.TempDir()
	a, b, c := []byte("aaaaaaaa"), []byte("bbbb"), []byte("cccccc")
	set := writeSet(t, dir, RedundancyParity, a, b, c)
	met := &Metrics{}
	d := Disk{FS: OS{}, Metrics: met}

	// Delete one stripe: ReadStripe reconstructs from parity and heals.
	if err := os.Remove(filepath.Join(dir, set.Stripes[1].Name)); err != nil {
		t.Fatal(err)
	}
	data, repaired, err := set.ReadStripe(d, 1, true)
	if err != nil || !repaired || string(data) != "bbbb" {
		t.Fatalf("ReadStripe = %q, repaired=%v, err=%v", data, repaired, err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, set.Stripes[1].Name)); string(got) != "bbbb" {
		t.Fatalf("healed file = %q", got)
	}
	if met.Reconstructions.Load() != 1 || met.Repairs.Load() != 1 {
		t.Fatalf("metrics: %d reconstructions, %d repairs", met.Reconstructions.Load(), met.Repairs.Load())
	}

	// An intact read afterwards does not reconstruct again.
	if _, repaired, err = set.ReadStripe(d, 1, true); err != nil || repaired {
		t.Fatalf("post-heal read repaired=%v err=%v", repaired, err)
	}

	// Corrupt (not delete) a different stripe: same outcome, repair off
	// leaves the damage in place.
	corrupt(t, filepath.Join(dir, set.Stripes[2].Name))
	data, repaired, err = set.ReadStripe(d, 2, false)
	if err != nil || !repaired || string(data) != "cccccc" {
		t.Fatalf("ReadStripe(corrupt) = %q, repaired=%v, err=%v", data, repaired, err)
	}
	if h := set.Verify(d); len(h.BadStripes) != 1 || h.BadStripes[0] != 2 || !h.Recoverable {
		t.Fatalf("Verify after no-repair read = %+v", h)
	}

	// Two damaged data files exceed single-parity redundancy.
	corrupt(t, filepath.Join(dir, set.Stripes[0].Name))
	if _, _, err := set.ReadStripe(d, 0, false); err == nil {
		t.Fatal("double damage must be unrecoverable in parity mode")
	}
	if h := set.Verify(d); h.Recoverable {
		t.Fatal("Verify calls a double-damaged parity set recoverable")
	}
}

func TestReplicaReconstruct(t *testing.T) {
	dir := t.TempDir()
	set := writeSet(t, dir, RedundancyReplica, []byte("aaaaaaaa"), []byte("bbbb"))
	d := Disk{FS: OS{}}

	// Lose a primary: the replica serves and heals it.
	os.Remove(filepath.Join(dir, set.Stripes[0].Name))
	data, repaired, err := set.ReadStripe(d, 0, true)
	if err != nil || !repaired || string(data) != "aaaaaaaa" {
		t.Fatalf("ReadStripe = %q, repaired=%v, err=%v", data, repaired, err)
	}
	// Lose a primary AND its replica: unrecoverable.
	os.Remove(filepath.Join(dir, set.Stripes[1].Name))
	os.Remove(filepath.Join(dir, ReplicaName(set.Stripes[1].Name)))
	if _, _, err := set.ReadStripe(d, 1, true); err == nil {
		t.Fatal("primary+replica loss must be unrecoverable")
	}
	if h := set.Verify(d); h.Recoverable {
		t.Fatalf("Verify = %+v, want unrecoverable", h)
	}
}

// intact reports a set with no damage anywhere, redundancy included.
func intact(h Health) bool { return len(h.BadStripes) == 0 && len(h.BadAux) == 0 }

func TestVerifyMatrix(t *testing.T) {
	type damage func(t *testing.T, dir string, set StripeSet)
	loseStripe := func(t *testing.T, dir string, set StripeSet) {
		os.Remove(filepath.Join(dir, set.Stripes[0].Name))
	}
	loseAux := func(t *testing.T, dir string, set StripeSet) {
		if set.Redundancy == RedundancyParity {
			corrupt(t, filepath.Join(dir, set.Parity.Name))
		} else {
			corrupt(t, filepath.Join(dir, ReplicaName(set.Stripes[0].Name)))
		}
	}
	cases := []struct {
		name        string
		redundancy  string
		damage      damage
		recoverable bool
	}{
		{"none/clean", RedundancyNone, nil, true},
		{"none/lost", RedundancyNone, loseStripe, false},
		{"parity/clean", RedundancyParity, nil, true},
		{"parity/lost-stripe", RedundancyParity, loseStripe, true},
		{"parity/lost-parity", RedundancyParity, loseAux, true},
		{"replica/lost-stripe", RedundancyReplica, loseStripe, true},
		{"replica/lost-replica", RedundancyReplica, loseAux, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			set := writeSet(t, dir, tc.redundancy, []byte("aaaaaaaa"), []byte("bbbbbbbb"))
			clean := set.Verify(Disk{FS: OS{}})
			if !intact(clean) || !clean.Recoverable {
				t.Fatalf("fresh set not clean: %+v", clean)
			}
			if tc.damage != nil {
				tc.damage(t, dir, set)
			}
			h := set.Verify(Disk{FS: OS{}})
			if h.Recoverable != tc.recoverable {
				t.Fatalf("Recoverable = %v, want %v (%+v)", h.Recoverable, tc.recoverable, h)
			}
			if tc.damage != nil && intact(h) {
				t.Fatal("damage not detected")
			}
		})
	}
}

func TestServerOverlapAndFailure(t *testing.T) {
	dir := t.TempDir()
	srv := StartServer(Disk{FS: OS{}})
	for i := 0; i < 8; i++ {
		srv.Write(filepath.Join(dir, stripeName(i)), []byte{byte(i), byte(i)})
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		got, err := os.ReadFile(filepath.Join(dir, stripeName(i)))
		if err != nil || len(got) != 2 || got[0] != byte(i) {
			t.Fatalf("stripe %d = %v, %v", i, got, err)
		}
	}

	// First failure is sticky; later jobs are skipped, not written.
	ff := NewFaultFS(OS{}, &FaultPlan{Rules: []FaultRule{{Kind: FaultEIO, Op: "write", Rank: -1, Count: 1}}})
	srv = StartServer(Disk{FS: ff.Rank(0)})
	srv.Write(filepath.Join(dir, "fail.bin"), []byte("x"))
	srv.Write(filepath.Join(dir, "skipped.bin"), []byte("y"))
	if err := srv.Close(); err == nil {
		t.Fatal("Close swallowed the write failure")
	}
	if _, err := os.Stat(filepath.Join(dir, "skipped.bin")); !os.IsNotExist(err) {
		t.Fatal("a job after the first failure still reached the disk")
	}
}
