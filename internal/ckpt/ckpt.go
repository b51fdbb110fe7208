// Package ckpt implements versioned, coordinated checkpoints of
// distributed arrays: the durable half of surviving permanent rank loss.
//
// The storage engine underneath is internal/pario, a ViPIOS-style
// parallel I/O subsystem, and the file layout follows the layout the
// distribution announces: the descriptor already is the layout, so a
// checkpoint needs no second one.  A checkpoint *epoch* is one directory,
// `epoch-<n>`, holding:
//
//   - `rank-<r>.bin` — one rank file per rank that wrote the epoch: rank
//     r's primary local segment of every array, in local canonical
//     order, written by r's own I/O server goroutine — no array data
//     crosses the wire on its way to disk;
//   - optional redundancy: a parity file (byte-wise XOR of the rank
//     files) or a full replica of every rank file, so any single lost or
//     corrupt rank file of an epoch is reconstructed at restore time —
//     and repaired in place (self-healing).  The parity is folded from
//     the rank files themselves over a binomial tree;
//   - `manifest.json` recording the array descriptors (domain bounds and
//     the full distribution expression), the rank files with a CRC-32
//     each, and the redundancy mode.
//
// Epochs commit atomically: all files are written into `epoch-<n>.tmp`
// and the directory is renamed only after every file's checksum has been
// gathered into the manifest.  A crash mid-write leaves either a previous
// committed epoch or a stale `.tmp` directory, which the next Save
// garbage-collects.  Restore — and LatestEpoch — trust no epoch blindly:
// they verify completeness (manifest parses and validates, every rank
// file checks out or is recoverable through redundancy) and fall back
// epoch by epoch to the newest verifiably complete one.
//
// Restore replays the recorded distribution over a *virtual* processor
// arrangement of the checkpointed size, intersects every saved rank's
// grid with what the live rank now owns, and reads exactly the rank files
// that hold a part of it — so a checkpoint taken on P ranks restores onto
// any machine size, fewer *or more* ranks, and onto another distribution.
// On the same rank count and distribution a rank reads its own file only,
// and the restore is bit-identical.
//
// All entry points are SPMD-collective and error-returning; a rank whose
// local I/O fails propagates the failure to every peer — through the
// checksum gather of a save, a status reduction in a restore — so no
// rank commits or proceeds alone.
package ckpt

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/pario"
	"repro/internal/trace"
)

// Version is the checkpoint format version Save writes and the only one
// Restore reads: an epoch whose manifest names another version is skipped
// like a damaged one.
const Version = 3

const fileMagic = 0x5646524b // "VFRK": rank files

// Options configures the parallel-I/O side of Save/Restore.  The zero
// value means: parity redundancy, keep all epochs, the real filesystem,
// no I/O deadline or retries.
type Options struct {
	// Redundancy selects the self-healing mode: pario.RedundancyParity
	// (default), pario.RedundancyReplica, or pario.RedundancyNone.
	Redundancy string
	// Keep, when > 0, prunes all but the newest Keep committed epochs
	// after each successful Save (<= 0: keep everything).  The epoch just
	// committed is never pruned.
	Keep int
	// FS returns the filesystem rank performs its I/O through (nil: the
	// real filesystem for every rank).  Per-rank resolution keeps
	// injected fault schedules deterministic: pass (*pario.FaultFS).Rank
	// to put a seeded fault plan under every read and write.
	FS func(rank int) pario.FS
	// Metrics, when non-nil, counts the I/O every rank performs.
	Metrics *pario.Metrics
	// Retry is the policy every filesystem operation runs under: the
	// transport's, with the same deadline escalation and backoff.
	Retry msg.RetryPolicy
}

func (o Options) withDefaults() Options {
	if o.Redundancy == "" {
		o.Redundancy = pario.RedundancyParity
	}
	if o.FS == nil {
		o.FS = func(int) pario.FS { return pario.OS{} }
	}
	return o
}

// disk is rank's handle on the storage layer under these options (after
// withDefaults).
func (o Options) disk(rank int, tr *trace.Tracer) pario.Disk {
	return pario.Disk{FS: o.FS(rank), Retry: o.Retry, Metrics: o.Metrics, Tracer: tr, Rank: rank}
}

// Validate rejects malformed options deterministically on every rank.
func (o Options) Validate() error {
	if o.Redundancy != "" && !pario.ValidRedundancy(o.Redundancy) {
		return fmt.Errorf("ckpt: unknown redundancy mode %q (want none|parity|replica)", o.Redundancy)
	}
	return nil
}

// Manifest describes one committed checkpoint epoch.
type Manifest struct {
	Version int
	Epoch   int
	// NP is the number of ranks that wrote the epoch.
	NP int
	// Meta carries caller state (e.g. the iteration counter) through the
	// checkpoint, so a recovered run knows where to resume.
	Meta   map[string]string `json:",omitempty"`
	Arrays []ArrayMeta
	// Redundancy is the self-healing mode (none|parity|replica).
	Redundancy string `json:",omitempty"`
	// Files lists the NP rank files, Files[r] rank r's.
	Files []FileMeta `json:",omitempty"`
	// Parity is the parity file of a parity-redundant epoch.
	Parity *FileMeta `json:",omitempty"`
}

// ArrayMeta records one array's descriptor at checkpoint time.
type ArrayMeta struct {
	Name   string
	Lo, Hi []int // inclusive domain bounds per dimension
	Dist   DistMeta
}

// DistMeta is the serialized distribution descriptor: the per-dimension
// specifiers plus the processor-arrangement extents they were applied to.
type DistMeta struct {
	Dims          []DimMeta
	TargetExtents []int
}

// DimMeta serializes one dist.DimSpec.
type DimMeta struct {
	Kind   string
	K      int   `json:",omitempty"`
	Phase  int   `json:",omitempty"`
	Sizes  []int `json:",omitempty"`
	Bounds []int `json:",omitempty"`
}

// FileMeta records one file's integrity data and the rank that wrote it.
type FileMeta struct {
	Rank int
	Name string
	Size int64
	CRC  uint32
}

// MetaInt reads an integer entry of the manifest's Meta map; ok is false
// when absent or malformed.
func (m *Manifest) MetaInt(key string) (int, bool) {
	s, ok := m.Meta[key]
	if !ok {
		return 0, false
	}
	v, err := strconv.Atoi(s)
	return v, err == nil
}

// stripeSet builds the pario view of an epoch's files: the rank files
// are the set's stripes.
func (m *Manifest) stripeSet(epochDir string) pario.StripeSet {
	set := pario.StripeSet{Dir: epochDir, Redundancy: m.Redundancy}
	for _, fm := range m.Files {
		set.Stripes = append(set.Stripes, pario.StripeInfo{Name: fm.Name, Size: fm.Size, CRC: fm.CRC})
	}
	if m.Parity != nil {
		set.Parity = &pario.StripeInfo{Name: m.Parity.Name, Size: m.Parity.Size, CRC: m.Parity.CRC}
	}
	return set
}

func epochDirName(epoch int) string   { return fmt.Sprintf("epoch-%08d", epoch) }
func parityFileName() string          { return "parity.bin" }
func stagingDirName(epoch int) string { return fmt.Sprintf("epoch-%08d.tmp", epoch) }
func manifestPath(dir string) string  { return filepath.Join(dir, "manifest.json") }

// rankNames holds the first ranks' file names: naming them allocates nothing.
var rankNames = func() (t [64]string) {
	for r := range t {
		t[r] = fmt.Sprintf("rank-%04d.bin", r)
	}
	return t
}()

func rankFileName(r int) string {
	if r < len(rankNames) {
		return rankNames[r]
	}
	return fmt.Sprintf("rank-%04d.bin", r)
}

// epochOf parses an epoch directory's name, epoch-NNNNNNNN (eight digits).
func epochOf(name string) (int, bool) {
	digits, ok := strings.CutPrefix(name, "epoch-")
	n, err := strconv.ParseUint(digits, 10, 32)
	return int(n), ok && len(digits) == 8 && err == nil
}

// maxPoints bounds a recorded domain's bounds and point count, so that no
// arithmetic on a decoded manifest overflows.
const maxPoints = 1 << 40

func domainOf(am ArrayMeta) (index.Domain, error) {
	if len(am.Lo) == 0 || len(am.Lo) != len(am.Hi) {
		return index.Domain{}, fmt.Errorf("ckpt: array %s: malformed domain bounds", am.Name)
	}
	bounds := make([][2]int, len(am.Lo))
	points := 1
	for k := range am.Lo {
		lo, hi := am.Lo[k], am.Hi[k]
		if lo < -maxPoints || hi > maxPoints || lo > hi || points > maxPoints/(hi-lo+1) {
			return index.Domain{}, fmt.Errorf("ckpt: array %s: malformed domain bounds", am.Name)
		}
		points *= hi - lo + 1
		bounds[k] = [2]int{lo, hi}
	}
	return index.NewDomain(bounds...), nil
}

// validate checks everything a restore trusts a manifest with, before any
// data file is read: the format version, a file list of NP entries under
// their own names, and for every array well-formed domain bounds and a
// distribution that replays over a recorded arrangement of at most NP
// ranks.
func (m *Manifest) validate() error {
	if m.Version != Version {
		return fmt.Errorf("format version %d, want %d", m.Version, Version)
	}
	if m.NP < 1 || len(m.Files) != m.NP {
		return fmt.Errorf("%d rank files listed for NP=%d", len(m.Files), m.NP)
	}
	for r, fm := range m.Files {
		if fm.Name != rankFileName(r) || fm.Size < 0 {
			return fmt.Errorf("rank file %d recorded as %q, %d bytes", r, fm.Name, fm.Size)
		}
	}
	if !pario.ValidRedundancy(m.Redundancy) || (m.Parity != nil && m.Parity.Name != parityFileName()) {
		return fmt.Errorf("malformed redundancy %q", m.Redundancy)
	}
	for _, am := range m.Arrays {
		dom, err := domainOf(am)
		if err != nil {
			return err
		}
		procs := 1
		for _, e := range am.Dist.TargetExtents {
			if e < 1 || procs > m.NP/e {
				return fmt.Errorf("array %s: target %v exceeds NP=%d", am.Name, am.Dist.TargetExtents, m.NP)
			}
			procs *= e
		}
		for _, d := range am.Dist.Dims {
			if d.K > maxPoints {
				return fmt.Errorf("array %s: %s block size %d", am.Name, d.Kind, d.K)
			}
		}
		if _, err := replay(am.Dist, dom); err != nil {
			return fmt.Errorf("array %s: %w", am.Name, err)
		}
	}
	return nil
}

// epochsIn lists the committed epoch numbers in dir, descending.
func epochsIn(f pario.FS, dir string) ([]int, error) {
	ents, err := f.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ckpt: scanning %s: %w", dir, err)
	}
	epochs := make([]int, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		if n, ok := epochOf(e.Name()); ok {
			epochs = append(epochs, n)
		}
	}
	slices.Sort(epochs)
	slices.Reverse(epochs)
	return epochs, nil
}

// LatestEpoch scans dir for the newest *verifiably complete* epoch: its
// manifest parses and every data file checks out (or, for a redundant
// epoch, is reconstructible).  It returns epoch -1 and a nil manifest
// when dir holds no usable checkpoint.  Staging (`.tmp`) directories,
// epochs with unreadable manifests, and epochs with missing or corrupt
// data files beyond redundancy are all skipped — an interrupted or
// bit-rotted checkpoint is invisible here, and the newest complete
// predecessor wins.
func LatestEpoch(dir string) (int, *Manifest, error) {
	epoch, man, _, _, err := latestUsable(pario.Disk{FS: pario.OS{}}, dir)
	return epoch, man, err
}

// latestUsable also reports the data stripes of the chosen epoch that
// failed verification, and why the newest epoch was passed over (nil
// when it was not), so a restore that finds nothing can say what it saw.
func latestUsable(d pario.Disk, dir string) (epoch int, man *Manifest, bad []int, skipped, err error) {
	epochs, err := epochsIn(d.FS, dir)
	if err != nil {
		return -1, nil, nil, nil, err
	}
	for i, n := range epochs {
		epochDir := filepath.Join(dir, epochDirName(n))
		man, err := readManifest(d, epochDir)
		if err == nil { // every rank file checks out or is reconstructible
			set := man.stripeSet(epochDir)
			h := set.Verify(d)
			if bad = h.BadStripes; !h.Recoverable {
				err = fmt.Errorf("ckpt: %s: data files lost or corrupt beyond redundancy", epochDir)
			}
		}
		if err == nil {
			return n, man, bad, skipped, nil
		}
		// Uncommitted, damaged, incomplete or of another format: fall back.
		if i == 0 {
			skipped = err
		}
	}
	return -1, nil, nil, skipped, nil
}

func readManifest(d pario.Disk, epochDir string) (*Manifest, error) {
	b, err := d.ReadFile(manifestPath(epochDir))
	if err != nil {
		return nil, err
	}
	var man Manifest
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", manifestPath(epochDir), err)
	}
	if err := man.validate(); err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", epochDir, err)
	}
	return &man, nil
}

// distMeta serializes d's descriptor: specifiers and target extents.
func distMeta(d *dist.Distribution) DistMeta {
	tg := d.Target()
	dm := DistMeta{TargetExtents: make([]int, tg.NDims()), Dims: make([]DimMeta, 0, len(d.DistType().Dims))}
	for k := range dm.TargetExtents {
		dm.TargetExtents[k] = tg.Extent(k)
	}
	for _, spec := range d.DistType().Dims {
		dm.Dims = append(dm.Dims, DimMeta{
			Kind:   spec.Kind.String(),
			K:      spec.K,
			Phase:  spec.Phase,
			Sizes:  append([]int(nil), spec.Sizes...),
			Bounds: append([]int(nil), spec.Bounds...),
		})
	}
	return dm
}

// checkReplay verifies that d's descriptor replays — the same type over
// a virtual target of the same extents owns the same grids — as it does
// for a standard d.  Pinned coordinates, transposed bindings from
// alignment and proper sub-sections of the machine are rejected at
// *save* time, when the program can still do something about it.
func checkReplay(d *dist.Distribution) error {
	if d.Standard() {
		return nil
	}
	rd, err := replay(distMeta(d), d.Domain())
	if err != nil {
		return fmt.Errorf("ckpt: descriptor does not serialize: %w", err)
	}
	for r := 0; r < d.Target().Size(); r++ {
		if !slices.EqualFunc(rd.LocalGrid(r).Dims, d.LocalGrid(r).Dims, index.RunSet.Equal) {
			return fmt.Errorf("ckpt: non-standard distribution %v (pinned, sectioned or permuted target binding) is not checkpointable", d)
		}
	}
	return nil
}

func dimSpecOf(dm DimMeta) (dist.DimSpec, error) {
	switch dm.Kind {
	case ":":
		return dist.ElidedDim(), nil
	case "BLOCK":
		return dist.BlockDim(), nil
	case "CYCLIC":
		s := dist.CyclicDim(dm.K)
		s.Phase = dm.Phase
		return s, nil
	case "S_BLOCK":
		return dist.SBlockDim(dm.Sizes...), nil
	case "B_BLOCK":
		return dist.BBlockDim(dm.Bounds...), nil
	}
	return dist.DimSpec{}, fmt.Errorf("ckpt: unknown distribution kind %q", dm.Kind)
}

func typeOf(dm DistMeta) (dist.Type, error) {
	specs := make([]dist.DimSpec, len(dm.Dims))
	for i, d := range dm.Dims {
		s, err := dimSpecOf(d)
		if err != nil {
			return dist.Type{}, err
		}
		specs[i] = s
	}
	return dist.NewType(specs...), nil
}

// replay rebuilds the recorded distribution over a virtual target of the
// recorded extents.
func replay(dm DistMeta, dom index.Domain) (*dist.Distribution, error) {
	typ, err := typeOf(dm)
	if err != nil {
		return nil, err
	}
	return dist.New(typ, dom, virtualTarget{ext: dm.TargetExtents})
}

// errPeerFailed is what every rank but the failing one reports when a
// collective step of a save or restore fails somewhere else.
var errPeerFailed = errors.New("ckpt: a peer rank failed")

// agree propagates a local failure to every rank: after it returns nil,
// every rank knows every other rank succeeded.  The reduction itself runs
// under the machine's retry policy, so a rank that died (rather than
// erred) surfaces as a transport error here.
func agree(ctx *machine.Ctx, local error) error {
	v := 0
	if local != nil {
		v = 1
	}
	out, err := ctx.Comm().AllreduceInts([]int{v}, msg.SumInt)
	if local != nil {
		return local
	}
	if err != nil {
		return err
	}
	if out[0] > 0 {
		return errPeerFailed
	}
	return nil
}

func getU32(b []byte, off int) uint32 {
	return binary.LittleEndian.Uint32(b[off:])
}

// remapDims adapts np-dependent per-dimension specifiers to a new
// processor arrangement: S_BLOCK/B_BLOCK segment tables sized for the old
// arrangement degrade to BLOCK; BLOCK, CYCLIC and ":" carry over.
func remapDims(dm DistMeta, newExt []int) DistMeta {
	out := DistMeta{TargetExtents: newExt, Dims: make([]DimMeta, len(dm.Dims))}
	copy(out.Dims, dm.Dims)
	td := 0
	for i, d := range dm.Dims {
		if d.Kind == ":" {
			continue
		}
		if d.Kind == "S_BLOCK" || d.Kind == "B_BLOCK" {
			if td < len(newExt) && td < len(dm.TargetExtents) && newExt[td] != dm.TargetExtents[td] {
				out.Dims[i] = DimMeta{Kind: "BLOCK"}
			}
		}
		td++
	}
	return out
}
