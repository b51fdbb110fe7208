package pario

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"repro/internal/trace"
)

// Redundancy modes for a stripe set.
const (
	// RedundancyNone stores only the data stripes; any lost or corrupt
	// stripe file makes the epoch unusable.
	RedundancyNone = "none"
	// RedundancyParity stores one extra parity stripe (the byte-wise XOR
	// of all data stripes, zero-padded to the largest); any single lost
	// or corrupt file — data or parity — is reconstructible from the
	// rest.
	RedundancyParity = "parity"
	// RedundancyReplica stores a full second copy of every data stripe;
	// either copy repairs the other.
	RedundancyReplica = "replica"
)

// ValidRedundancy reports whether s names a redundancy mode.
func ValidRedundancy(s string) bool {
	return s == RedundancyNone || s == RedundancyParity || s == RedundancyReplica
}

// XorInto folds src into dst (dst must be at least as long as src), a
// word at a time with a byte tail; the parity stripe is the XOR of all
// data stripes zero-padded to the longest.
func XorInto(dst, src []byte) {
	dst = dst[:len(src)]
	for len(src) >= 8 {
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^binary.LittleEndian.Uint64(src))
		dst, src = dst[8:], src[8:]
	}
	for i, b := range src {
		dst[i] ^= b
	}
}

// StripeInfo records one stripe file's integrity data.
type StripeInfo struct {
	Name string
	Size int64
	CRC  uint32
}

// ReplicaName is the on-disk name of a stripe's replica copy.
func ReplicaName(name string) string { return name + ".rep" }

// StripeSet describes the files of one committed epoch: the data
// stripes, the redundancy mode, and (in parity mode) the parity stripe.
// It is the unit Verify and ReadStripe operate on; internal/ckpt
// builds one from each epoch manifest.
type StripeSet struct {
	Dir        string
	Stripes    []StripeInfo
	Redundancy string
	Parity     *StripeInfo
}

// checkedRead reads and integrity-checks one file against its recorded
// size and CRC; any mismatch (or a missing file) comes back as an error.
func (s *StripeSet) checkedRead(d Disk, name string, size int64, crc uint32) ([]byte, error) {
	data, err := d.ReadFile(filepath.Join(s.Dir, name))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != size || crc32.ChecksumIEEE(data) != crc {
		return nil, fmt.Errorf("pario: %s/%s: checksum mismatch (%d bytes, want %d)", s.Dir, name, len(data), size)
	}
	return data, nil
}

// reconstruct rebuilds data stripe i from the redundancy stripes: the
// replica copy in replica mode, the XOR of every other stripe plus
// parity in parity mode.
func (s *StripeSet) reconstruct(d Disk, i int) ([]byte, error) {
	info := s.Stripes[i]
	switch s.Redundancy {
	case RedundancyReplica:
		data, err := s.checkedRead(d, ReplicaName(info.Name), info.Size, info.CRC)
		if err != nil {
			return nil, fmt.Errorf("pario: stripe %d unrecoverable (replica also damaged): %w", i, err)
		}
		if d.Metrics != nil {
			d.Metrics.Reconstructions.Add(1)
		}
		return data, nil
	case RedundancyParity:
		if s.Parity == nil {
			return nil, fmt.Errorf("pario: stripe %d unrecoverable (no parity stripe recorded)", i)
		}
		acc, err := s.checkedRead(d, s.Parity.Name, s.Parity.Size, s.Parity.CRC)
		if err != nil {
			return nil, fmt.Errorf("pario: stripe %d unrecoverable (parity damaged): %w", i, err)
		}
		buf := make([]byte, len(acc))
		copy(buf, acc)
		for j, other := range s.Stripes {
			if j == i {
				continue
			}
			data, err := s.checkedRead(d, other.Name, other.Size, other.CRC)
			if err != nil {
				return nil, fmt.Errorf("pario: stripe %d unrecoverable (stripe %d also damaged): %w", i, j, err)
			}
			XorInto(buf, data)
		}
		data := buf[:info.Size]
		if crc32.ChecksumIEEE(data) != info.CRC {
			return nil, fmt.Errorf("pario: stripe %d: parity reconstruction fails its checksum (multiple damaged files)", i)
		}
		if d.Metrics != nil {
			d.Metrics.Reconstructions.Add(1)
		}
		return data, nil
	}
	return nil, fmt.Errorf("pario: stripe %d unrecoverable (redundancy %q)", i, s.Redundancy)
}

// repairFile atomically rewrites name with data: the content lands under
// a rank-unique temporary name and is renamed into place, so concurrent
// repairs by several restoring ranks (always with identical bytes) are
// benign.
func (s *StripeSet) repairFile(d Disk, name string, data []byte) error {
	path := filepath.Join(s.Dir, name)
	tmp := fmt.Sprintf("%s.repair.%d", path, d.Rank)
	if err := d.WriteFile(tmp, data); err != nil {
		return err
	}
	if err := d.Rename(tmp, path); err != nil {
		return err
	}
	if d.Metrics != nil {
		d.Metrics.Repairs.Add(1)
	}
	d.Tracer.Instant(d.Rank, trace.CatIO, "io:repair "+name, -1, int64(len(data)))
	return nil
}

// ReadStripe returns the verified content of data stripe i.  A damaged
// or missing stripe file is reconstructed from redundancy; with repair
// set the reconstruction is also written back in place (self-healing
// restore).  repaired reports whether a reconstruction happened.
func (s *StripeSet) ReadStripe(d Disk, i int, repair bool) (data []byte, repaired bool, err error) {
	info := s.Stripes[i]
	data, err = s.checkedRead(d, info.Name, info.Size, info.CRC)
	if err == nil {
		return data, false, nil
	}
	data, rerr := s.reconstruct(d, i)
	if rerr != nil {
		return nil, false, fmt.Errorf("%v; %w", err, rerr)
	}
	if repair {
		if werr := s.repairFile(d, info.Name, data); werr != nil {
			return nil, true, fmt.Errorf("pario: repairing stripe %d: %w", i, werr)
		}
	}
	return data, true, nil
}

// ReadIntact is ReadStripe for a stripe an earlier Verify found intact:
// it reads the file and checks its size but not its CRC.  A file that no
// longer reads, or whose size changed since, goes the ReadStripe way.
func (s *StripeSet) ReadIntact(d Disk, i int, repair bool) (data []byte, repaired bool, err error) {
	info := s.Stripes[i]
	data, err = d.ReadFile(filepath.Join(s.Dir, info.Name))
	if err == nil && int64(len(data)) == info.Size {
		return data, false, nil
	}
	return s.ReadStripe(d, i, repair)
}

// Health reports a Verify pass over a stripe set.
type Health struct {
	// BadStripes lists the indices of damaged or missing data stripes.
	BadStripes []int
	// BadAux lists damaged redundancy files (parity or replica names).
	BadAux []string
	// Recoverable reports whether every data stripe is still readable,
	// through redundancy if need be — the "verifiably complete" test a
	// restore falls back on epoch by epoch.
	Recoverable bool
}

// Verify integrity-checks every file of the set without modifying
// anything.
func (s *StripeSet) Verify(d Disk) Health {
	var h Health
	for i, info := range s.Stripes {
		if _, err := s.checkedRead(d, info.Name, info.Size, info.CRC); err != nil {
			h.BadStripes = append(h.BadStripes, i)
		}
		if s.Redundancy == RedundancyReplica {
			if _, err := s.checkedRead(d, ReplicaName(info.Name), info.Size, info.CRC); err != nil {
				h.BadAux = append(h.BadAux, ReplicaName(info.Name))
			}
		}
	}
	parityOK := true
	if s.Redundancy == RedundancyParity && s.Parity != nil {
		if _, err := s.checkedRead(d, s.Parity.Name, s.Parity.Size, s.Parity.CRC); err != nil {
			h.BadAux = append(h.BadAux, s.Parity.Name)
			parityOK = false
		}
	}
	switch s.Redundancy {
	case RedundancyParity:
		h.Recoverable = len(h.BadStripes) == 0 || (len(h.BadStripes) == 1 && parityOK)
	case RedundancyReplica:
		h.Recoverable = true
		bad := map[int]bool{}
		for _, i := range h.BadStripes {
			bad[i] = true
		}
		for _, name := range h.BadAux {
			for i, info := range s.Stripes {
				if ReplicaName(info.Name) == name && bad[i] {
					h.Recoverable = false
				}
			}
		}
	default:
		h.Recoverable = len(h.BadStripes) == 0
	}
	return h
}
