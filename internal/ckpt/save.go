package ckpt

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sync"

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
// dedicated goroutine.  Redundancy is written in the same pass: a full
// replica of every stripe, or a parity stripe that every rank starts
// from its own data before the exchange (a partial: its parts of every
// stripe XORed at their in-stripe offsets) and that a binomial tree
// folds into the last server while the exchange runs.  One checksum
// gather then carries every rank's outcome, and rank 0 broadcasts the
// commit verdict.  It returns the committed epoch number.
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

	// Each array's domain is striped into ns canonical-order slabs, and
	// this rank cuts its primary data along them once: the stripe
	// exchange ships the packed parts and the parity partial folds them.
	// Stripe layout and the recorded distributions — and therefore who
	// sends to whom and every payload size — are a pure function of the
	// descriptors and ns, so all ranks agree on them without negotiation.
	stripes := make([][]index.Grid, len(arrays))
	for i, a := range arrays {
		stripes[i] = pario.StripeGrids(a.Domain(), ns)
	}
	maxSize := 0
	for s := 0; s < ns; s++ {
		maxSize = max(maxSize, stripeSize(stripes, s))
	}
	mine := cutParts(ctx, arrays, stripes, ns)

	// A bad payload or partial fails the epoch, not the protocol: the rank
	// that sees it keeps exchanging and folding (its peers are waiting on
	// its messages) and reports through the checksum gather, so the
	// staging directory is never committed.
	var bad error
	fail := func(err error) {
		if bad == nil {
			bad = err
		}
	}

	// Parity, part one: every rank's partial is ready before the exchange,
	// and the leaves of the fold tree send theirs straight away.
	parity := opts.Redundancy == pario.RedundancyParity
	root := ns - 1 // the parity writer
	var partial []byte
	if parity {
		partial = getBuf(maxSize)
		clear(partial)
		mine.xorInto(partial, stripes)
		if rank == root {
			xorHeaders(partial, stripes, epoch, ns)
		}
		if v := (rank - root + np) % np; v&1 != 0 {
			if err := msg.SendRetry(ctx.Endpoint(), ctx.Comm().Config(), tr, "ckpt-parity", (v-1+root)%np, parityTag, partial); err != nil {
				return -1, fmt.Errorf("ckpt: parity fold: %w", err)
			}
			// A leaf is done with its partial: the buffer goes back at once,
			// and a server's stripe image takes it over.
			putBuf(partial)
			partial = nil
		}
	}

	// The exchange: rank s owns stripe s and places each payload into its
	// stripe image as it arrives; the ring has no size round in front, and
	// a payload of the wrong size is the server's to detect
	// (stripeImage.place).
	var img *stripeImage
	recvFrom := make([]bool, np)
	if rank < ns {
		img = newStripeImage(arrays, stripes, epoch, rank, np)
		for r := range recvFrom {
			recvFrom[r] = r != rank && img.expect(r) > 0
		}
	}
	place := func(from int, data []byte) {
		if err := img.place(from, data); err != nil {
			fail(err)
		}
	}
	err = ctx.Comm().AlltoallvStream(
		func(to int) ([]byte, error) { return mine.pack(to), nil },
		recvFrom,
		func(from int, data []byte) error { place(from, data); return nil })
	if err != nil {
		return -1, fmt.Errorf("ckpt: stripe exchange: %w", err)
	}

	// The servers checksum their stripe and hand it to their I/O
	// goroutine; the disk writes overlap the rest of the parity fold.
	var (
		srv        *pario.Server
		myCRC      uint32
		parityCRC  uint32
		paritySize int
	)
	if rank < ns {
		if buf := mine.pack(rank); buf != nil {
			place(rank, buf)
		}
		myCRC = crc32.ChecksumIEEE(img.buf)
		srv = pario.StartServer(f, cfg, tr, rank)
		srv.Write(filepath.Join(staging, stripeFileName(rank)), img.buf)
		if opts.Redundancy == pario.RedundancyReplica {
			srv.Write(filepath.Join(staging, pario.ReplicaName(stripeFileName(rank))), img.buf)
		}
	}

	// Parity, part two: the interior ranks of the tree merge their
	// children's partials and pass the sum up; the root writes the parity
	// stripe, the XOR of every stripe file zero-padded to maxSize.
	if parity {
		if err := foldParity(ctx, partial, root, fail); err != nil {
			if srv != nil {
				srv.Close()
			}
			return -1, fmt.Errorf("ckpt: parity fold: %w", err)
		}
		if rank == root {
			parityCRC, paritySize = crc32.ChecksumIEEE(partial), maxSize
			srv.Write(filepath.Join(staging, parityFileName()), partial)
		}
	}

	// Join the servers, then gather the checksums together with every
	// rank's outcome (a negative size marks a rank that failed): no rank
	// commits alone.
	if srv != nil {
		if err := srv.Close(); err != nil {
			fail(err)
		}
	}
	size := 0
	if img != nil {
		size = len(img.buf)
	}
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
	// The servers are joined: the stripe and parity buffers are free.
	putBuf(partial)
	if img != nil {
		putBuf(img.buf)
	}

	// Rank 0 writes the manifest and commits with the staging rename,
	// applies the retention policy and broadcasts the verdict.
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
		if parity {
			man.Parity = &FileMeta{
				Rank: root, Name: parityFileName(),
				Size: int64(sums[root][3]), CRC: uint32(sums[root][2]),
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
	verdict := 0
	if commitErr != nil {
		verdict = 1
	}
	got, err := ctx.Comm().BcastInts(0, []int{verdict})
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

// foldParity is the fold's second half, after the stripe exchange: a
// binomial tree over all np ranks rooted at root, in the rotated rank
// space v = (rank − root) mod np.  A rank merges the partial of child
// v + 2^k for every k below the lowest set bit of v, then sends the sum
// to its parent v − 2^(that bit); the leaves (odd v) sent theirs before
// the exchange.  No rank receives more than ⌈log₂ np⌉ partials, and on
// root acc ends as the parity stripe.  A partial of the wrong size goes
// to fail and is left out; only transport errors end the fold.
func foldParity(ctx *machine.Ctx, acc []byte, root int, fail func(error)) error {
	rank, np := ctx.Rank(), ctx.NP()
	ep, cfg, tr := ctx.Endpoint(), ctx.Comm().Config(), ctx.Tracer()
	v := (rank - root + np) % np
	for mask := 1; mask < np; mask <<= 1 {
		if v&mask != 0 {
			if mask == 1 {
				return nil // a leaf: sent before the exchange
			}
			return msg.SendRetry(ep, cfg, tr, "ckpt-parity", (v-mask+root)%np, parityTag, acc)
		}
		if v|mask >= np {
			continue
		}
		from := ((v | mask) + root) % np
		got, err := msg.RecvRetry(ep, cfg, tr, "ckpt-parity", from, parityTag)
		if err != nil {
			return err
		}
		if len(got.Data) == len(acc) {
			pario.XorInto(acc, got.Data)
		} else {
			fail(fmt.Errorf("ckpt: parity fold: %d bytes from rank %d, want %d", len(got.Data), from, len(acc)))
		}
		got.Release()
	}
	return nil
}

// stripeBufs recycles a save's stripe-sized buffers — the parity partial
// and the stripe image — for the next save.  The I/O servers write the
// image and the parity asynchronously, so those come back only after the
// servers are joined.
var stripeBufs sync.Pool

// getBuf returns an n-byte buffer of unspecified content.
func getBuf(n int) []byte {
	if p, ok := stripeBufs.Get().(*[]byte); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

func putBuf(b []byte) {
	if cap(b) > 0 {
		stripeBufs.Put(&b)
	}
}

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

// A stripe file is a 20-byte header (stripeHeader), then per array a u32
// count and the array's slab of the stripe in canonical order.

// stripeHeader is stripe s's header words.
func stripeHeader(epoch, s, narr int) [5]uint32 {
	return [5]uint32{stripeMagic, Version, uint32(epoch), uint32(s), uint32(narr)}
}

// slabOffset is the byte offset of array i's values in stripe s's file
// (its count word sits in the 4 bytes before).  Every rank computes the
// same layout without communicating.
func slabOffset(stripes [][]index.Grid, s, i int) int {
	off := 20 + 4
	for j := 0; j < i; j++ {
		off += 4 + 8*stripes[j][s].Count()
	}
	return off
}

// stripeSize is the exact byte size of stripe s's file.
func stripeSize(stripes [][]index.Grid, s int) int {
	return slabOffset(stripes, s, len(stripes)) - 4
}

// xorHeaders folds into a parity partial the bytes of the stripe files
// that no rank's data covers: every stripe's header and count words.
func xorHeaders(acc []byte, stripes [][]index.Grid, epoch, ns int) {
	xorU32 := func(off int, v uint32) {
		binary.LittleEndian.PutUint32(acc[off:], binary.LittleEndian.Uint32(acc[off:])^v)
	}
	for s := 0; s < ns; s++ {
		for k, v := range stripeHeader(epoch, s, len(stripes)) {
			xorU32(4*k, v)
		}
		for i := range stripes {
			xorU32(slabOffset(stripes, s, i)-4, uint32(stripes[i][s].Count()))
		}
	}
}

// part is one array's share of one stripe held by one rank.
type part struct {
	i int        // the array's index
	g index.Grid // the points, a subset of the array's slab of the stripe
}

// rankParts is this rank's primary data cut along the stripes: its parts
// of every stripe, each intersection computed once for both the exchange
// and the parity partial.  Replicated copies are identical, so only the
// primary holds parts.
type rankParts struct {
	locals []*darray.Local // by array; nil where this rank is no primary
	of     [][]part        // of[s]: this rank's parts of stripe s, by array
	buf    []byte          // pack's buffer, sized for the largest stripe's parts
}

func cutParts(ctx *machine.Ctx, arrays []*darray.Array, stripes [][]index.Grid, ns int) rankParts {
	rank := ctx.Rank()
	p := rankParts{locals: make([]*darray.Local, len(arrays)), of: make([][]part, ns)}
	for i, a := range arrays {
		if !a.Dist(rank).IsPrimaryRank(rank) {
			continue
		}
		p.locals[i] = a.Local(ctx)
		mine := p.locals[i].Grid()
		for s := range p.of {
			if g := mine.Intersect(stripes[i][s]); !g.Empty() {
				p.of[s] = append(p.of[s], part{i, g})
			}
		}
	}
	most := 0
	for _, parts := range p.of {
		n := 0
		for _, pt := range parts {
			n += 8 * pt.g.Count()
		}
		most = max(most, n)
	}
	if most > 0 {
		p.buf = make([]byte, 0, most)
	}
	return p
}

// pack packs this rank's parts of stripe s back to back, nil when it has
// none (ranks from ns up serve no stripe).  One buffer serves every
// stripe: the next pack overwrites it, and Send is done with it on return.
func (p *rankParts) pack(s int) []byte {
	if s >= len(p.of) || len(p.of[s]) == 0 {
		return nil
	}
	p.buf = p.buf[:0]
	for _, pt := range p.of[s] {
		p.buf = p.locals[pt.i].AppendPacked(p.buf, pt.g)
	}
	return p.buf
}

// xorInto folds every part at its offset within its stripe's file into
// acc, the rank's parity partial.
func (p *rankParts) xorInto(acc []byte, stripes [][]index.Grid) {
	for s, parts := range p.of {
		data := p.pack(s)
		for _, pt := range parts {
			n := 8 * pt.g.Count()
			pario.PlaceXor(acc[slabOffset(stripes, s, pt.i):], data[:n], pt.g, stripes[pt.i][s])
			data = data[n:]
		}
	}
}

// stripeImage is one server's stripe file, assembled in memory.  For
// every source rank, the intersection of that rank's recorded primary
// grid with the stripe grid says exactly which canonical positions its
// payload bytes land in.
type stripeImage struct {
	grids []index.Grid // the stripe's slab of each array
	s     int
	buf   []byte   // the file image
	offs  []int    // byte offset of each array's slab in buf
	from  [][]part // from[r]: rank r's primary parts of the stripe
}

// newStripeImage prepares stripe s's image — zeroed, with the header and
// the per-array counts written — and, from the server's descriptors,
// each of the np ranks' parts of the stripe.
func newStripeImage(arrays []*darray.Array, stripes [][]index.Grid, epoch, s, np int) *stripeImage {
	im := &stripeImage{
		s:     s,
		grids: make([]index.Grid, len(arrays)),
		offs:  make([]int, len(arrays)),
		buf:   getBuf(stripeSize(stripes, s)),
		from:  make([][]part, np),
	}
	clear(im.buf)
	for k, v := range stripeHeader(epoch, s, len(arrays)) {
		binary.LittleEndian.PutUint32(im.buf[4*k:], v)
	}
	for i, a := range arrays {
		im.grids[i] = stripes[i][s]
		im.offs[i] = slabOffset(stripes, s, i)
		binary.LittleEndian.PutUint32(im.buf[im.offs[i]-4:], uint32(im.grids[i].Count()))
		d := a.Dist(s)
		for r := range im.from {
			if !d.IsPrimaryRank(r) {
				continue
			}
			if g := d.LocalGrid(r).Intersect(im.grids[i]); !g.Empty() {
				im.from[r] = append(im.from[r], part{i, g})
			}
		}
	}
	return im
}

// expect is the exact size of rank r's payload for this stripe.
func (im *stripeImage) expect(r int) int {
	n := 0
	for _, pt := range im.from[r] {
		n += 8 * pt.g.Count()
	}
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
	for _, pt := range im.from[r] {
		n := 8 * pt.g.Count()
		slab := im.buf[im.offs[pt.i] : im.offs[pt.i]+8*im.grids[pt.i].Count()]
		pario.Place(slab, data[off:off+n], pt.g, im.grids[pt.i])
		off += n
	}
	return nil
}
