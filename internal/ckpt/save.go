package ckpt

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"repro/internal/darray"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/pario"
	"repro/internal/trace"
)

// SaveOpts writes one coordinated checkpoint epoch of the given arrays
// (collective; every rank passes the same arrays in the same order and
// the same options).  Every array must currently be distributed.  meta
// (may be nil) is stored in the manifest for the restoring run.
//
// The write is two-phase, ViPIOS style: each array's domain is split
// into opts.Servers stripes of the canonical file order, every rank's
// primary local spans are exchanged into the stripe owners with one
// scheduled all-to-all per epoch, each payload placed into the owner's
// stripe image as it arrives, and only then do the I/O server ranks
// touch disk — each stripe written once, sequentially, by its server's
// dedicated goroutine while the ranks move on to the checksum gather and
// commit agreement.  Redundancy (a parity stripe built by a pipelined
// XOR chain across the servers, or a full replica of every stripe) is
// written in the same pass.  It returns the committed epoch number.
func SaveOpts(ctx *machine.Ctx, dir string, arrays []*darray.Array, meta map[string]string, opts Options) (int, error) {
	rank, np := ctx.Rank(), ctx.NP()
	if err := opts.Validate(); err != nil {
		return -1, err
	}
	opts = opts.withDefaults(np)
	f := opts.FS(rank)
	cfg := opts.IO
	tr := ctx.Tracer()
	ns := opts.Servers

	// Serialize descriptors first (deterministic: every rank fails
	// identically on a non-checkpointable distribution).
	metas := make([]ArrayMeta, len(arrays))
	for i, a := range arrays {
		d := a.Dist(rank)
		if d == nil {
			return -1, fmt.Errorf("ckpt: array %s has no distribution", a.Name())
		}
		dm, err := distMeta(d)
		if err != nil {
			return -1, fmt.Errorf("ckpt: array %s: %w", a.Name(), err)
		}
		dom := a.Domain()
		am := ArrayMeta{Name: a.Name(), Dist: dm}
		for k := 0; k < dom.Rank(); k++ {
			am.Lo = append(am.Lo, dom.Lo[k])
			am.Hi = append(am.Hi, dom.Hi[k])
		}
		metas[i] = am
	}

	// Rank 0 picks the epoch number, garbage-collects staging directories
	// a crashed run left behind, and prepares this epoch's staging dir.
	epoch := -1
	var prepErr error
	if rank == 0 {
		epoch, prepErr = prepareStaging(f, cfg, tr, dir)
	}
	ep, err := ctx.Comm().BcastInts(0, []int{epoch})
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
	staging := filepath.Join(dir, stagingDirName(epoch))

	// Phase one: the collective exchange.  Each array's domain is striped
	// into ns canonical-order slabs; every rank packs the intersection of
	// its primary spans with each stripe and ships it to the stripe's
	// server (rank s owns stripe s), which places each payload into its
	// stripe image as it arrives.  Stripe layout and the recorded
	// distributions — and therefore who sends to whom and every payload
	// size — are a pure function of the descriptors and ns, so all ranks
	// agree on them without negotiation: the exchange is a scheduled ring
	// with no size round in front, and a payload of the wrong size is the
	// server's to detect (stripeImage.place).
	stripes := make([][]index.Grid, len(arrays))
	maxSize := 0
	for i, a := range arrays {
		stripes[i] = pario.StripeGrids(a.Domain(), ns)
	}
	for s := 0; s < ns; s++ {
		maxSize = max(maxSize, stripeSize(arrays, stripes, s))
	}
	var img *stripeImage
	recvFrom := make([]bool, np)
	if rank < ns {
		img = newStripeImage(arrays, stripes, epoch, rank, maxSize)
		for r := range recvFrom {
			recvFrom[r] = r != rank && img.expect(r) > 0
		}
	}
	// packFor packs this rank's part of stripe s, nil when it has none.
	// One buffer serves every destination: Send is done with it on return.
	var packBuf []byte
	packFor := func(s int) []byte {
		if s >= ns {
			return nil
		}
		packBuf = packBuf[:0]
		for i, a := range arrays {
			if !a.Dist(rank).IsPrimaryRank(rank) {
				continue // replicated copies are identical; the primary ships
			}
			l := a.Local(ctx)
			if inter := l.Grid().Intersect(stripes[i][s]); !inter.Empty() {
				packBuf = l.AppendPacked(packBuf, inter)
			}
		}
		if len(packBuf) == 0 {
			return nil
		}
		return packBuf
	}
	// A bad payload fails the epoch, not the ring: the server keeps
	// exchanging (its peers are waiting on its sends) and reports through
	// the agreement below, so the staging directory is never committed.
	var placeErr error
	place := func(from int, data []byte) {
		if err := img.place(from, data); err != nil && placeErr == nil {
			placeErr = err
		}
	}
	err = ctx.Comm().AlltoallvStream(
		func(to int) ([]byte, error) { return packFor(to), nil },
		recvFrom,
		func(from int, data []byte) error { place(from, data); return nil })
	if err != nil {
		return -1, fmt.Errorf("ckpt: stripe exchange: %w", err)
	}

	// Phase two: the servers checksum their stripe and hand it to their
	// I/O goroutine; the disk writes overlap the parity chain, the
	// checksum gather and the commit agreement below.
	var (
		srv       *pario.Server
		stripeBuf []byte
		myCRC     uint32
	)
	if rank < ns {
		if buf := packFor(rank); buf != nil {
			place(rank, buf)
		}
		stripeBuf = img.buf
		myCRC = crc32.ChecksumIEEE(stripeBuf)
		srv = pario.StartServer(f, cfg, tr, rank)
		srv.Write(filepath.Join(staging, stripeFileName(rank)), stripeBuf)
		if opts.Redundancy == pario.RedundancyReplica {
			srv.Write(filepath.Join(staging, pario.ReplicaName(stripeFileName(rank))), stripeBuf)
		}
	}

	// Parity: a pipelined XOR chain across the server ranks (raw tag
	// 9101), zero-padded to the largest stripe; the last server writes
	// the folded result.  The first link sends its image as it stands —
	// the image's capacity is the padding — and every later link folds
	// its image into the buffer it received and passes that on.
	var parityCRC uint32
	var paritySize int
	if opts.Redundancy == pario.RedundancyParity && rank < ns {
		acc := stripeBuf[:maxSize]
		ep, ccfg := ctx.Endpoint(), ctx.Comm().Config()
		var got msg.Packet
		if rank > 0 {
			got, err = msg.RecvRetry(ep, ccfg, tr, "ckpt-parity", rank-1, parityTag)
			if err != nil {
				return -1, fmt.Errorf("ckpt: parity chain: %w", err)
			}
			if len(got.Data) == maxSize {
				acc = got.Data
				pario.XorInto(acc, stripeBuf)
			} else if placeErr == nil {
				placeErr = fmt.Errorf("ckpt: parity chain: %d bytes from rank %d, want %d", len(got.Data), rank-1, maxSize)
			}
		}
		if rank < ns-1 {
			if err := msg.SendRetry(ep, ccfg, tr, "ckpt-parity", rank+1, parityTag, acc); err != nil {
				return -1, fmt.Errorf("ckpt: parity chain: %w", err)
			}
			got.Release()
		} else {
			parityCRC = crc32.ChecksumIEEE(acc)
			paritySize = maxSize
			srv.Write(filepath.Join(staging, parityFileName()), acc)
		}
	}

	// Gather integrity data while the servers are still writing, then
	// join them and agree on the outcome — no rank commits alone.
	sums, err := ctx.Comm().AllgatherInts([]int{int(myCRC), len(stripeBuf), int(parityCRC), paritySize})
	if err != nil {
		return -1, fmt.Errorf("ckpt: checksum gather: %w", err)
	}
	writeErr := placeErr
	if srv != nil {
		if err := srv.Close(); writeErr == nil {
			writeErr = err
		}
	}
	if err := agree(ctx, writeErr); err != nil {
		return -1, fmt.Errorf("ckpt: writing epoch %d: %w", epoch, err)
	}

	// Rank 0 writes the manifest and commits with the staging rename,
	// then applies the retention policy.
	var commitErr error
	if rank == 0 {
		man := Manifest{
			Version: Version, Epoch: epoch, NP: np, Meta: meta, Arrays: metas,
			NS: ns, Redundancy: opts.Redundancy,
		}
		for s := 0; s < ns; s++ {
			man.Stripes = append(man.Stripes, FileMeta{
				Rank: s, Name: stripeFileName(s), Size: int64(sums[s][1]), CRC: uint32(sums[s][0]),
			})
		}
		if opts.Redundancy == pario.RedundancyParity {
			man.Parity = &FileMeta{
				Rank: ns - 1, Name: parityFileName(),
				Size: int64(sums[ns-1][3]), CRC: uint32(sums[ns-1][2]),
			}
		}
		b, err := json.MarshalIndent(&man, "", "  ")
		if err == nil {
			err = cfg.WriteFile(f, tr, rank, manifestPath(staging), b)
		}
		if err == nil {
			// The rename is the commit point: before it the epoch is an
			// ignorable .tmp directory, after it the manifest and every
			// checksummed stripe are in place.
			err = cfg.Rename(f, tr, rank, staging, filepath.Join(dir, epochDirName(epoch)))
		}
		commitErr = err
		if commitErr == nil && opts.Keep > 0 {
			pruneEpochs(f, dir, opts.Keep)
		}
	}
	if err := agree(ctx, commitErr); err != nil {
		return -1, fmt.Errorf("ckpt: committing epoch %d: %w", epoch, err)
	}
	return epoch, nil
}

// parityTag is the raw message tag of the parity XOR chain (the 9xxx
// range is reserved for protocol traffic outside array redistribution).
const parityTag = 9101

// prepareStaging (rank 0 only) creates dir, removes stale staging
// directories from interrupted runs, picks the next epoch number and
// creates its staging directory.
func prepareStaging(f pario.FS, cfg pario.Config, tr *trace.Tracer, dir string) (int, error) {
	if err := cfg.MkdirAll(f, tr, 0, dir); err != nil {
		return -1, err
	}
	if ents, err := f.ReadDir(dir); err == nil {
		for _, e := range ents {
			if e.IsDir() && stagingDirRe.MatchString(e.Name()) {
				// Best-effort GC of an interrupted checkpoint's staging
				// debris; a leftover under this epoch's own name is
				// cleared again below in any case.
				_ = f.RemoveAll(filepath.Join(dir, e.Name()))
			}
		}
	}
	latest, err := maxEpochDir(f, dir)
	if err != nil {
		return -1, err
	}
	epoch := latest + 1
	staging := filepath.Join(dir, stagingDirName(epoch))
	if err := f.RemoveAll(staging); err != nil {
		return -1, err
	}
	if err := cfg.MkdirAll(f, tr, 0, staging); err != nil {
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

// stripeSize is the exact byte size of stripe s: the header plus, per
// array, a u32 count and the packed values.  Every rank computes the
// same sizes without communicating.
func stripeSize(arrays []*darray.Array, stripes [][]index.Grid, s int) int {
	n := 20
	for i := range arrays {
		n += 4 + 8*stripes[i][s].Count()
	}
	return n
}

// stripeImage is one server's stripe file, assembled in memory: the
// header, then per array a u32 count and the array's slab of the stripe
// in canonical order.  For every source rank, the intersection of that
// rank's recorded primary grid with the stripe grid says exactly which
// canonical positions its payload bytes land in.
type stripeImage struct {
	arrays []*darray.Array
	grids  []index.Grid // the stripe's slab of each array
	s      int
	buf    []byte // the file image; its capacity is the parity padding
	offs   []int  // byte offset of each array's slab in buf
}

// newStripeImage allocates stripe s's image once — zeroed, with capacity
// padTo so the parity chain can send it zero-padded as it stands — and
// writes the header and the per-array counts.
func newStripeImage(arrays []*darray.Array, stripes [][]index.Grid, epoch, s, padTo int) *stripeImage {
	im := &stripeImage{
		arrays: arrays, s: s,
		grids: make([]index.Grid, len(arrays)),
		offs:  make([]int, len(arrays)),
		buf:   make([]byte, stripeSize(arrays, stripes, s), padTo),
	}
	for i, v := range []uint32{stripeMagic, Version, uint32(epoch), uint32(s), uint32(len(arrays))} {
		binary.LittleEndian.PutUint32(im.buf[4*i:], v)
	}
	off := 20
	for i := range arrays {
		im.grids[i] = stripes[i][s]
		n := im.grids[i].Count()
		binary.LittleEndian.PutUint32(im.buf[off:], uint32(n))
		im.offs[i] = off + 4
		off += 4 + 8*n
	}
	return im
}

// parts calls f for every array of which rank r holds a primary part of
// the stripe, with that part, as the descriptors of the stripe's server
// (rank s) say.
func (im *stripeImage) parts(r int, f func(i int, inter index.Grid)) {
	for i, a := range im.arrays {
		d := a.Dist(im.s)
		if !d.IsPrimaryRank(r) {
			continue
		}
		if inter := d.LocalGrid(r).Intersect(im.grids[i]); !inter.Empty() {
			f(i, inter)
		}
	}
}

// expect is the exact size of rank r's payload for this stripe.
func (im *stripeImage) expect(r int) int {
	n := 0
	im.parts(r, func(_ int, inter index.Grid) { n += 8 * inter.Count() })
	return n
}

// place puts rank r's payload — its parts of the stripe, array after
// array, each in canonical order — where they belong in the image.  The
// length check is the only one this payload gets: no size was exchanged.
func (im *stripeImage) place(r int, data []byte) error {
	if want := im.expect(r); len(data) != want {
		return fmt.Errorf("ckpt: stripe %d: payload from rank %d is %d bytes, want %d", im.s, r, len(data), want)
	}
	off := 0
	im.parts(r, func(i int, inter index.Grid) {
		n := 8 * inter.Count()
		slab := im.buf[im.offs[i] : im.offs[i]+8*im.grids[i].Count()]
		pario.Place(slab, data[off:off+n], inter, im.grids[i])
		off += n
	})
	return nil
}
