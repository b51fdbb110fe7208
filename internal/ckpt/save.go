package ckpt

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/darray"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/pario"
)

// SaveOpts writes one coordinated checkpoint epoch of the given arrays
// (collective; every rank passes the same arrays in the same order and
// the same options).  Every array must currently be distributed.  meta
// (may be nil) is stored in the manifest for the restoring run.
//
// A save is a DISTRIBUTE to disk: the file layout is the layout the
// descriptors announce.  Every rank packs its primary local segment of
// every array, in local canonical order, into its own rank file and hands
// it to its own I/O server goroutine, so no array data crosses the wire to
// reach a disk.  Redundancy is written in the same pass: a full replica of
// every rank file, or a parity file — the XOR of the rank files, each
// zero-padded to the largest — that a binomial tree folds into rank np−1
// from the rank files themselves while the disks write.  One checksum
// gather then carries every rank's outcome, and rank 0 broadcasts the
// commit verdict.  It returns the committed epoch number.
func SaveOpts(ctx *machine.Ctx, dir string, arrays []*darray.Array, meta map[string]string, opts Options) (int, error) {
	rank, np := ctx.Rank(), ctx.NP()
	if err := opts.Validate(); err != nil {
		return -1, err
	}
	opts = opts.withDefaults()
	d := opts.disk(rank, ctx.Tracer())

	// Check the descriptors first (deterministic: every rank fails
	// identically on a non-checkpointable distribution); rank 0, which
	// writes the manifest, serializes them.
	var metas []ArrayMeta
	for _, a := range arrays {
		d := a.Dist(rank)
		if d == nil {
			return -1, fmt.Errorf("ckpt: array %s has no distribution", a.Name())
		}
		if err := checkReplay(d); err != nil {
			return -1, fmt.Errorf("ckpt: array %s: %w", a.Name(), err)
		}
		if dom := a.Domain(); rank == 0 {
			metas = append(metas, ArrayMeta{Name: a.Name(), Lo: slices.Clone(dom.Lo), Hi: slices.Clone(dom.Hi), Dist: distMeta(d)})
		}
	}

	// Rank 0 picks the epoch number, garbage-collects staging directories
	// a crashed run left behind, and prepares this epoch's staging dir.
	epoch := -1
	var prepErr error
	if rank == 0 {
		epoch, prepErr = prepareStaging(d, dir)
	}
	one := [1]int{epoch}
	ep, err := ctx.Comm().BcastIntsInto(0, one[:], one[:])
	if err != nil {
		return -1, fmt.Errorf("ckpt: epoch agreement: %w", err)
	}
	epoch = ep[0]
	if epoch < 0 {
		if prepErr != nil {
			return -1, fmt.Errorf("ckpt: preparing %s: %w", dir, prepErr)
		}
		return -1, errors.New("ckpt: rank 0 failed to prepare the staging directory")
	}
	stage := stagingDirName(epoch)

	// Every rank file's size is a pure function of the descriptors, so all
	// ranks agree on the parity length without negotiation.  This rank's
	// file goes to its server at once; the disk write overlaps the fold.
	var sizesBuf [16]int
	sizes := sizesBuf[:0]
	for r := range np {
		sizes = append(sizes, rankFileSize(arrays, rank, r))
	}
	fileBox := packRankFile(ctx, arrays, epoch, sizes[rank])
	file := *fileBox
	myCRC := crc32.ChecksumIEEE(file)
	srv := pario.StartServer(d)
	srv.Write(filepath.Join(dir, stage, rankFileName(rank)), file)
	if opts.Redundancy == pario.RedundancyReplica {
		srv.Write(filepath.Join(dir, stage, pario.ReplicaName(rankFileName(rank))), file)
	}

	// A bad partial fails the epoch, not the protocol: the rank that sees
	// it keeps folding (its peers are waiting on its messages) and reports
	// through the checksum gather, so the staging directory is never
	// committed.
	var bad error
	fail := func(err error) {
		if bad == nil {
			bad = err
		}
	}

	// The parity fold: a rank with children folds them into acc, a copy of
	// its file padded to the largest; any other rank sends its file buffer
	// itself, so every rank packs its data once.
	parity := opts.Redundancy == pario.RedundancyParity
	root := np - 1 // the parity writer
	var (
		accBox     *[]byte
		parityCRC  uint32
		paritySize int
	)
	if parity {
		partial := file
		if hasChildren((rank-root+np)%np, np) {
			accBox = getBuf(slices.Max(sizes))
			partial = *accBox
			clear(partial[copy(partial, file):])
		}
		if err := foldParity(ctx, partial, root, sizes, fail); err != nil {
			srv.Close()
			return -1, fmt.Errorf("ckpt: parity fold: %w", err)
		}
		if rank == root {
			parityCRC, paritySize = crc32.ChecksumIEEE(partial), len(partial)
			srv.Write(filepath.Join(dir, stage, parityFileName()), partial)
		}
	}

	// Join the server, then gather the checksums together with every
	// rank's outcome (a negative size marks a rank that failed): no rank
	// commits alone.
	if err := srv.Close(); err != nil {
		fail(err)
	}
	size := len(file)
	if bad != nil {
		size = -1
	}
	sums, err := ctx.Comm().AllgatherInts([]int{int(myCRC), size, int(parityCRC), paritySize})
	if err != nil {
		return -1, fmt.Errorf("ckpt: checksum gather: %w", err)
	}
	if bad != nil {
		return -1, fmt.Errorf("ckpt: writing epoch %d: %w", epoch, bad)
	}
	for _, v := range sums {
		if len(v) != 4 || v[1] < 0 {
			return -1, fmt.Errorf("ckpt: writing epoch %d: %w", epoch, errPeerFailed)
		}
	}
	// The server is joined: the file and parity buffers are free.
	putBuf(accBox)
	putBuf(fileBox)

	// Rank 0 writes the manifest and commits with the staging rename,
	// applies the retention policy and broadcasts the verdict.
	var commitErr error
	if rank == 0 {
		staging := filepath.Join(dir, stage)
		man := Manifest{Version: Version, Epoch: epoch, NP: np, Meta: meta, Arrays: metas, Redundancy: opts.Redundancy,
			Files: make([]FileMeta, 0, np)}
		for r := 0; r < np; r++ {
			man.Files = append(man.Files, FileMeta{
				Rank: r, Name: rankFileName(r), Size: int64(sums[r][1]), CRC: uint32(sums[r][0]),
			})
		}
		if parity {
			man.Parity = &FileMeta{
				Rank: root, Name: parityFileName(),
				Size: int64(sums[root][3]), CRC: uint32(sums[root][2]),
			}
		}
		b, err := json.MarshalIndent(&man, "", "  ")
		if err == nil {
			err = d.WriteFile(manifestPath(staging), b)
		}
		if err == nil {
			// The rename is the commit point: before it the epoch is an
			// ignorable .tmp directory, after it the manifest and every
			// checksummed rank file are in place.
			err = d.Rename(staging, filepath.Join(dir, epochDirName(epoch)))
		}
		commitErr = err
		if commitErr == nil && opts.Keep > 0 {
			pruneEpochs(d.FS, dir, opts.Keep)
		}
	}
	verdict := 0
	if commitErr != nil {
		verdict = 1
	}
	one[0] = verdict
	got, err := ctx.Comm().BcastIntsInto(0, one[:], one[:])
	switch {
	case commitErr != nil:
		return -1, fmt.Errorf("ckpt: committing epoch %d: %w", epoch, commitErr)
	case err != nil:
		return -1, fmt.Errorf("ckpt: committing epoch %d: %w", epoch, err)
	case len(got) != 1 || got[0] != 0:
		return -1, fmt.Errorf("ckpt: committing epoch %d: %w", epoch, errPeerFailed)
	}
	return epoch, nil
}

// parityTag is the raw message tag of the parity fold's partials (the
// 9xxx range is reserved for protocol traffic outside array
// redistribution).
const parityTag = 9101

// hasChildren reports whether the rank at v = (rank − root) mod np of the
// parity fold tree merges any child's partial: v is even and v + 1 is a
// rank.
func hasChildren(v, np int) bool { return v&1 == 0 && v+1 < np }

// foldParity is a binomial tree over all np ranks rooted at root, in the
// rotated rank space v = (rank − root) mod np.  A rank merges the partial
// of child v + 2^k for every k below the lowest set bit of v, then sends
// the sum to its parent v − 2^(that bit).  A rank without children sends
// its rank file as it is (sizes[rank] bytes); one with children sends acc,
// padded to the largest file.  No rank receives more than ⌈log₂ np⌉
// partials, and on root acc ends as the parity file.  A partial of the
// wrong size goes to fail and is left out; only transport errors end the
// fold.
func foldParity(ctx *machine.Ctx, acc []byte, root int, sizes []int, fail func(error)) error {
	rank, np := ctx.Rank(), ctx.NP()
	ep, pol, tr := ctx.Endpoint(), ctx.Comm().Retry(), ctx.Tracer()
	v := (rank - root + np) % np
	for mask := 1; mask < np; mask <<= 1 {
		if v&mask != 0 {
			return msg.SendRetry(ep, pol, tr, "ckpt-parity", (v-mask+root)%np, parityTag, acc)
		}
		if v|mask >= np {
			continue
		}
		from := ((v | mask) + root) % np
		want := sizes[from]
		if hasChildren(v|mask, np) {
			want = len(acc)
		}
		got, err := msg.RecvRetry(ep, pol, tr, "ckpt-parity", from, parityTag)
		if err != nil {
			return err
		}
		if len(got.Data) == want {
			pario.XorInto(acc, got.Data)
		} else {
			fail(fmt.Errorf("ckpt: parity fold: %d bytes from rank %d, want %d", len(got.Data), from, want))
		}
		got.Release()
	}
	return nil
}

// A rank file is a 20-byte header (magic, Version, epoch, rank, number of
// arrays), then per array a u32 count and that many values: the rank's
// primary local segment in local canonical order, or nothing (count 0)
// where the rank is not the array's primary owner — a replicated array has
// one writer, its lowest owner.

// rankFileSize is the exact byte size of rank r's file, from self's
// descriptors.
func rankFileSize(arrays []*darray.Array, self, r int) int {
	n := 20
	for _, a := range arrays {
		n += 4
		if d := a.Dist(self); d.IsPrimaryRank(r) {
			n += 8 * d.LocalCount(r)
		}
	}
	return n
}

// packRankFile packs this rank's file into a pooled buffer of size bytes.
func packRankFile(ctx *machine.Ctx, arrays []*darray.Array, epoch, size int) *[]byte {
	rank := ctx.Rank()
	box := getBuf(size)
	buf := (*box)[:0]
	for _, v := range [5]uint32{fileMagic, Version, uint32(epoch), uint32(rank), uint32(len(arrays))} {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	for _, a := range arrays {
		if !a.Dist(rank).IsPrimaryRank(rank) {
			buf = binary.LittleEndian.AppendUint32(buf, 0)
			continue
		}
		l := a.Local(ctx)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l.Grid().Count()))
		buf = l.AppendOwned(buf)
	}
	*box = buf
	return box
}

// fileBufs recycles a save's file-sized buffers — the rank file and the
// parity accumulator — for the next save, each in the box it came in, so
// neither taking nor returning one allocates.  The I/O server writes
// both asynchronously, so they come back only after it is joined.
var fileBufs sync.Pool

// getBuf returns a box holding an n-byte buffer of unspecified content.
func getBuf(n int) *[]byte {
	p, _ := fileBufs.Get().(*[]byte)
	if p == nil || cap(*p) < n {
		b := make([]byte, n)
		return &b
	}
	*p = (*p)[:n]
	return p
}

func putBuf(p *[]byte) {
	if p != nil {
		fileBufs.Put(p)
	}
}

// prepareStaging (rank 0 only) creates dir, removes stale staging
// directories from interrupted runs, picks the next epoch number and
// creates its staging directory.
func prepareStaging(d pario.Disk, dir string) (int, error) {
	if err := d.MkdirAll(dir); err != nil {
		return -1, err
	}
	if ents, err := d.FS.ReadDir(dir); err == nil {
		for _, e := range ents {
			n, staging := strings.CutSuffix(e.Name(), ".tmp")
			if _, ok := epochOf(n); e.IsDir() && staging && ok {
				// Best-effort GC of an interrupted checkpoint's staging
				// debris; a leftover under this epoch's own name is
				// cleared again below in any case.
				_ = d.FS.RemoveAll(filepath.Join(dir, e.Name()))
			}
		}
	}
	// After the highest epoch directory, committed or not: the commit
	// rename must never collide with a damaged epoch's name.
	epochs, err := epochsIn(d.FS, dir)
	if err != nil {
		return -1, err
	}
	epoch := 0
	if len(epochs) > 0 {
		epoch = epochs[0] + 1
	}
	staging := filepath.Join(dir, stagingDirName(epoch))
	if err := d.FS.RemoveAll(staging); err != nil {
		return -1, err
	}
	if err := d.MkdirAll(staging); err != nil {
		return -1, err
	}
	return epoch, nil
}

// pruneEpochs removes all but the newest keep committed epochs
// (best-effort: retention must never fail a checkpoint that already
// committed).
func pruneEpochs(f pario.FS, dir string, keep int) {
	epochs, err := epochsIn(f, dir)
	if err != nil {
		return
	}
	for _, n := range epochs[min(keep, len(epochs)):] {
		_ = f.RemoveAll(filepath.Join(dir, epochDirName(n)))
	}
}
