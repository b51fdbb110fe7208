package msg

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// One-sided communication windows.
//
// A Window exposes each processor's registered []float64 storage for
// remote access — the PGAS model layered over the repo's two-sided
// transports.  Every rank registers its own storage slice; afterwards a
// rank may put into a peer's registered region described by a Rect, or
// pull a region its owner offered.
//
// Two completion disciplines are offered, both on counted streams
// (subtags 1..63):
//
//   - Puts (PutAsync / AwaitPut): the initiator packs a region of its
//     storage and sends it; the target consumes exactly one completion
//     per expected put and applies the payload into a region of its own
//     storage.  This is the ghost-exchange discipline — both sides derive
//     the transfer geometry from their own (replicated) distribution
//     descriptor, so the wire carries payload only and the message/byte
//     accounting is identical to the two-sided exchange it replaces.
//     Only the target writes its storage, at the await, so a put from a
//     neighbour that runs ahead can never land in a region the target is
//     still reading.
//   - Offers (Offer / Pull): the owner offers a region of its offered
//     storage and the receiver pulls it into storage of its own that need
//     not be registered — the DISTRIBUTE discipline, where the destination
//     stays private until its owner publishes it.  One offer may carry
//     regions of several windows (Share), as a connect class moves in one
//     message per peer.  On shared memory the receiver makes the only
//     copy and then hands the owner a done token per window; each
//     window's Settle collects its own before the owner reuses what it
//     offered.
//
// A rank's offered storage is its registered storage as of its last
// Settle, so it may register new storage (the target of its own awaits)
// while peers still pull from the old: a DISTRIBUTE commits without
// waiting for its pullers.
//
// Transport interplay:
//
//   - A put hands the endpoint a byte view of each contiguous run of its
//     rect (appendRuns, the run walk PackRect also takes) as the pieces
//     of one message: TCP writes them with writev, chan copies them into
//     the receive buffer, and the target applies the payload
//     bounds-checked at its await, which then releases it — on every
//     transport.  The chan transport recycles released payload buffers
//     as TCP does, and the gather list is recycled, so a warm put
//     allocates nothing.
//   - An offer on a transport whose endpoints report SharedMemory() (the
//     in-process chan transport, possibly under a View; not under the
//     fault or integrity layers, which must see the payload) moves only
//     a notification token: the token carries the happens-before edge
//     (matcher mutex) that makes the puller's direct copy race-free, and
//     it stands for the payload (gather.stands), so the transport's core
//     books it as the framed path's one data message of 8·count bytes —
//     Stats, CostModel and tracer alike, the sender's side at the offer
//     and the puller's at its receive.  The window itself books nothing.
//     On other transports (TCP loopback, the fault and integrity layers)
//     offers travel framed, gathered from the offered storage's runs like
//     puts.
//
// Epoch safety: window operations go through the caller's endpoint, so
// when that endpoint is a *View the tags are epoch-folded and every
// retry consults the liveness checker — a put or await on a revoked
// epoch aborts with the view's error instead of matching stale traffic.
//
// Failure semantics: a put whose payload is lost leaves the target's
// storage untouched and its await errors out.  An offer whose token is
// lost copies nothing; but a token that arrives after its pull gave up
// stays queued and would complete the next pull on that stream, so a
// counted stream must not be reused after a failed operation without a
// new epoch (a View folds the epoch into the tag).  A done token lost
// with its puller fails the offerer's next Settle.

// Rect describes a strided hyper-rectangular region of a window's
// registered storage: element offset Off plus per-dimension (stride,
// count) pairs, innermost (fastest-varying) dimension first.  It is how
// darray addresses every array byte it packs, applies or copies: a
// window transfer, a gather part, a rank-file segment, a self-copy.
type Rect struct {
	Off  int
	Dims []RectDim
}

// RectDim is one dimension of a Rect.
type RectDim struct {
	Stride int
	Count  int
}

// RectRun builds a one-dimensional contiguous Rect.
func RectRun(off, count int) Rect {
	return Rect{Off: off, Dims: []RectDim{{Stride: 1, Count: count}}}
}

// Count returns the number of elements the rect covers.
func (r Rect) Count() int {
	n := 1
	for _, d := range r.Dims {
		n *= d.Count
	}
	return n
}

// bounds returns the inclusive min/max element offsets the rect touches.
func (r Rect) bounds() (lo, hi int) {
	lo, hi = r.Off, r.Off
	for _, d := range r.Dims {
		span := (d.Count - 1) * d.Stride
		if span < 0 {
			lo += span
		} else {
			hi += span
		}
	}
	return lo, hi
}

// validate checks the rect against a storage of n elements.  A rect off
// the wire may carry any offset, strides and counts: the offset (the
// first element) must be in the storage, and the dimensions' extents are
// summed only while they fit in it, so bounds cannot overflow.
func (r Rect) validate(n int) error {
	if r.Off < 0 || r.Off >= n {
		return fmt.Errorf("msg: rect offset %d outside storage of %d elements", r.Off, n)
	}
	span := 0 // the dimensions' |extents| so far, kept <= n-1
	for _, d := range r.Dims {
		if d.Count <= 0 {
			return fmt.Errorf("msg: rect dimension with count %d", d.Count)
		}
		s := d.Stride
		if s < 0 {
			s = -s
		}
		if s < 0 || s > 0 && d.Count-1 > (n-1-span)/s {
			return fmt.Errorf("msg: rect dimension (stride %d, count %d) spans past storage of %d elements", d.Stride, d.Count, n)
		}
		span += (d.Count - 1) * s
	}
	lo, hi := r.bounds()
	if lo < 0 || hi >= n {
		return fmt.Errorf("msg: rect [%d,%d] outside storage of %d elements", lo, hi, n)
	}
	return nil
}

// inlineDims is the rect rank up to which run enumeration keeps its
// odometer on the stack; every array of the paper's programs (and of the
// benchmark) is within it, so window traffic allocates nothing.
const inlineDims = 4

// runCursor enumerates a rect's innermost runs in rect order: off is the
// element offset of the current run, next steps to the following one.
type runCursor struct {
	outer []RectDim       // dimensions 1.. (the odometer's digits)
	inl   [inlineDims]int // odometer, when it fits
	big   []int           // odometer of a rect with more outer dimensions
	off   int
}

// runs returns a cursor on the rect's first run plus the stride and
// count every run shares.  A rect with no dimensions is one element.
func (r Rect) runs() (c runCursor, stride, count int) {
	c.off = r.Off
	if len(r.Dims) == 0 {
		return c, 1, 1
	}
	c.outer = r.Dims[1:]
	if len(c.outer) > inlineDims {
		c.big = make([]int, len(c.outer))
	}
	return c, r.Dims[0].Stride, r.Dims[0].Count
}

// next advances to the following run; it reports false after the last.
func (c *runCursor) next() bool {
	idx := c.big
	if idx == nil {
		idx = c.inl[:len(c.outer)]
	}
	for k, d := range c.outer {
		idx[k]++
		c.off += d.Stride
		if idx[k] < d.Count {
			return true
		}
		c.off -= idx[k] * d.Stride
		idx[k] = 0
	}
	return false
}

// CopyRect copies src's sr region into dst's dr region element for
// element in rect order, with no wire encoding in between (a pull on
// shared memory, a DISTRIBUTE's self-copy, a resized restore).  Counts
// must match; where both sides' runs are contiguous the overlap of the
// two current runs moves with one copy().
func CopyRect(dst []float64, dr Rect, src []float64, sr Rect) {
	dc, dstride, dcount := dr.runs()
	sc, sstride, scount := sr.runs()
	dpos, spos := 0, 0
	for {
		take := min(dcount-dpos, scount-spos)
		do, so := dc.off+dpos*dstride, sc.off+spos*sstride
		if dstride == 1 && sstride == 1 {
			copy(dst[do:do+take], src[so:so+take])
		} else {
			for i := 0; i < take; i++ {
				dst[do+i*dstride] = src[so+i*sstride]
			}
		}
		dpos += take
		spos += take
		if dpos == dcount {
			if !dc.next() {
				return
			}
			dpos = 0
		}
		if spos == scount {
			if !sc.next() {
				return
			}
			spos = 0
		}
	}
}

// appendRuns appends to pieces the wire encoding of src's r region as
// pieces whose concatenation is PackRect(nil, src, r): a byte view of
// each contiguous run, runs that abut joined into one.  Where a run is
// not contiguous (innermost stride other than 1) or memory order is not
// wire order (byteViews is false), the region is packed onto pack
// instead, which the caller sized for the whole message (packBytes) so
// that no earlier piece is moved; appendRuns returns both lists.
func appendRuns(pieces [][]byte, pack []byte, src []float64, r Rect) ([][]byte, []byte) {
	if packBytes(r) > 0 {
		n := len(pack)
		pack = PackRect(pack, src, r)
		return append(pieces, pack[n:]), pack
	}
	c, _, count := r.runs()
	runs := 1
	for _, d := range c.outer {
		runs *= d.Count
	}
	pieces = slices.Grow(pieces, runs) // one allocation, the first time only
	lo, hi := c.off, c.off+count       // the run being joined: src[lo:hi]
	for c.next() {
		if c.off != hi {
			pieces = append(pieces, float64Bytes(src[lo:hi]))
			lo = c.off
		}
		hi = c.off + count
	}
	return append(pieces, float64Bytes(src[lo:hi])), pack
}

// packBytes returns how many bytes of r's wire encoding appendRuns packs
// rather than views: all of them where its innermost stride is not 1 or
// byteViews is false, none otherwise.
func packBytes(r Rect) int {
	if byteViews && (len(r.Dims) == 0 || r.Dims[0].Stride == 1) {
		return 0
	}
	return 8 * r.Count()
}

// packFor returns pack emptied, with capacity for n bytes.
func packFor(pack []byte, n int) []byte {
	if cap(pack) < n {
		return make([]byte, 0, n)
	}
	return pack[:0]
}

// PackRect appends the wire encoding of src's r region to buf in rect
// enumeration order (innermost dimension fastest) and returns the
// extended slice; recycled buffers make the steady state allocation-free.
func PackRect(buf []byte, src []float64, r Rect) []byte {
	var off int
	buf, off = GrowFloat64s(buf, r.Count())
	c, stride, count := r.runs()
	for more := true; more; more = c.next() {
		if stride == 1 {
			PutFloat64s(buf, off, src[c.off:c.off+count])
		} else {
			for i := 0; i < count; i++ {
				PutFloat64(buf, off+8*i, src[c.off+i*stride])
			}
		}
		off += 8 * count
	}
	return buf
}

// ApplyRect decodes a payload written by PackRect into dst's r region.
func ApplyRect(dst []float64, r Rect, payload []byte) error {
	if want := 8 * r.Count(); len(payload) != want {
		return fmt.Errorf("msg: put payload %d bytes, rect wants %d", len(payload), want)
	}
	if err := r.validate(len(dst)); err != nil {
		return err
	}
	off := 0
	c, stride, count := r.runs()
	for more := true; more; more = c.next() {
		if stride == 1 {
			GetFloat64s(dst[c.off:c.off+count], payload, off)
		} else {
			for i := 0; i < count; i++ {
				dst[c.off+i*stride] = GetFloat64(payload, off+8*i)
			}
		}
		off += 8 * count
	}
	return nil
}

// Window tag layout: each window owns winTagSlots consecutive tags above
// winTagBase; subtags 1..63 are the counted streams, and subtag 0 carries
// the done tokens pullers return to offerers.  The window id rotates
// through the space, which holds ~1M concurrently-live windows per
// transport.
const (
	winTagSlots = 64
	winTagBase  = TagRMABase + 8192
	maxWindows  = (TagCollBase - winTagBase) / winTagSlots
	doneSubtag  = 0
)

// MaxSubtag is the largest counted-stream subtag a window supports.
const MaxSubtag = winTagSlots - 1

var winSeq atomic.Int64

// Window is a one-sided access window over per-rank registered storage.
// The object is shared by all ranks of a transport (SPMD discipline);
// per-rank state is indexed by rank.
type Window struct {
	id     int
	name   string
	stats  *Stats
	shared []winShared
	// op names handed to SendRetry/RecvRetry, built once: the counted
	// streams run per message and must not concatenate per call.
	opPut, opAwait, opOffer, opPull, opDone string
}

// winShared is per-rank hot-path state.  Only its rank writes it; peers
// read offered after an offer token.
type winShared struct {
	data    []float64 // registered storage: the target of awaited puts
	offered []float64 // what offers address: data as of the last Settle
	owed    []int32   // per peer, done tokens not yet collected by Settle
	pieces  [][]byte  // recycled gather list of a put or framed offer
	pack    []byte    // recycled bytes of its packed (strided) rects
	_       [64]byte  // keep ranks off each other's cache lines
}

// NewWindow creates a window for np ranks.  stats must be non-nil; it
// holds the wire gauge of framed offers.  cost is not used: the
// transport books every transfer.  All ranks must share the returned
// object (create it once and publish it, e.g. via a collective
// constructor).
func NewWindow(np int, name string, stats *Stats, cost *CostModel) *Window {
	shared := make([]winShared, np)
	owed := make([]int32, np*np)
	for r := range shared {
		shared[r].owed = owed[r*np : (r+1)*np : (r+1)*np]
	}
	return &Window{
		id:     int(winSeq.Add(1)),
		name:   name,
		stats:  stats,
		shared: shared,

		opPut:   "win-put " + name,
		opAwait: "win-await " + name,
		opOffer: "win-offer " + name,
		opPull:  "win-pull " + name,
		opDone:  "win-done " + name,
	}
}

// Register associates rank's storage with the window: rank's awaits
// apply puts into it, and its offers address it after the rank's next
// Settle.  Call it on rank whenever its storage is (re)allocated.
func (w *Window) Register(rank int, data []float64) {
	w.shared[rank].data = data
}

// Settle waits until every peer that pulled from the caller's offered
// storage is done with it — one done token per pulled offer, on shared
// memory; nothing is owed elsewhere — and then offers from the caller's
// registered storage.  A rank calls it before it reuses storage it
// offered (DISTRIBUTE does, at the start of each move).  The tokens were
// sent as each pull finished, so by then they have normally arrived.
func (w *Window) Settle(c *Comm) error {
	sh := &w.shared[c.Rank()]
	for from, n := range sh.owed {
		for ; n > 0; n-- {
			if _, err := RecvRetry(c.ep, c.pol, c.tr, w.opDone, from, w.tag(doneSubtag)); err != nil {
				sh.owed[from] = n
				return w.opErr("settle with", from, err)
			}
		}
		sh.owed[from] = 0
	}
	sh.offered = sh.data
	return nil
}

func (w *Window) tag(subtag int) int {
	return winTagBase + (w.id%maxWindows)*winTagSlots + subtag
}

// sharedMemory reports whether the endpoint's transport chain delivers
// within one address space (the chan transport, bare or under a View).
func sharedMemory(ep Endpoint) bool {
	s, ok := ep.(interface{ SharedMemory() bool })
	return ok && s.SharedMemory()
}

// physOf maps an endpoint-relative rank to the physical rank the Stats
// wire gauge is indexed by (identity except under a *View).
func physOf(ep Endpoint, r int) int {
	if v, ok := ep.(interface{ Phys(int) int }); ok {
		return v.Phys(r)
	}
	return r
}

func (w *Window) opErr(op string, peer int, err error) error {
	return fmt.Errorf("msg: window %s: %s rank %d: %w", w.name, op, peer, err)
}

// PutAsync initiates a counted one-sided put: the elements of src (in
// the caller's registered storage) are sent to rank to, whose
// matching AwaitPut(from, subtag, dst) stores them into dst of its own
// storage.  dst names that target region; the caller checks only that it
// covers as many elements as src, since the target applies the payload
// through the rect it hands AwaitPut.  subtag must be in 1..MaxSubtag.
// The call returns when src is reusable; remote completion is the
// target's await.
func (w *Window) PutAsync(c *Comm, to, subtag int, src, dst Rect) error {
	w.checkSubtag("put", subtag)
	if sc, dc := src.Count(), dst.Count(); sc != dc {
		panic(fmt.Sprintf("msg: window %s: put count mismatch: src %d, dst %d", w.name, sc, dc))
	}
	sh := &w.shared[c.Rank()]
	if err := src.validate(len(sh.data)); err != nil {
		return w.opErr("put to", to, err)
	}
	sh.pack = packFor(sh.pack, packBytes(src))
	sh.pieces, sh.pack = appendRuns(sh.pieces[:0], sh.pack, sh.data, src)
	err := sendRetry(c.ep, c.pol, c.tr, w.opPut, to, w.tag(subtag), gather{pieces: sh.pieces})
	clear(sh.pieces) // hold no storage past the send
	if err != nil {
		return w.opErr("put to", to, err)
	}
	return nil
}

// AwaitPut completes one counted put from rank from on the given
// subtag, applying the payload into dst of the caller's registered
// storage and releasing it.  Completions on one (from, subtag) stream
// match puts in their issue order.
func (w *Window) AwaitPut(c *Comm, from, subtag int, dst Rect) error {
	w.checkSubtag("await", subtag)
	p, err := RecvRetry(c.ep, c.pol, c.tr, w.opAwait, from, w.tag(subtag))
	if err != nil {
		return w.opErr("await put from", from, err)
	}
	err = ApplyRect(w.shared[c.Rank()].data, dst, p.Data)
	p.Release()
	if err != nil {
		return w.opErr("await put from", from, err)
	}
	return nil
}

// checkSubtag panics unless subtag names a counted stream.
func (w *Window) checkSubtag(op string, subtag int) {
	if subtag < 1 || subtag > MaxSubtag {
		panic(fmt.Sprintf("msg: window %s: %s subtag %d outside 1..%d", w.name, op, subtag, MaxSubtag))
	}
}

// A Share is one region of an offer: the Src region of Win's offered
// storage on the offerer and, on the puller, the Dr region of the Dst
// storage it lands in.  A connect class moves as one offer per peer, its
// members' shares in class order, and a member whose transfer is several
// rects contributes a share per rect.
type Share struct {
	Win     *Window
	Src, Dr Rect
	Dst     []float64
}

// Offer makes each share's Src region of its window's offered storage (the
// caller's) available to rank to as one transfer on w's stream, which the
// receiver completes with the matching Pull(from, subtag, shares) naming
// the same windows and Src rects in the same order — the
// receiver-driven counterpart of PutAsync, for data whose destination is
// not (yet) registered storage.  On shared memory nothing is copied here:
// the transport moves one zero-byte token for all shares, which stands
// for the one data message of 8·count bytes the framed path sends, and the
// receiver copies every share straight out of its window's offered
// storage.  The caller must therefore leave each offered region
// unmodified until its next Settle of that window, which returns once the
// receiver's done token for the window is in; the offer token orders the
// caller's earlier writes before the receiver's reads.  On other
// transports the shares travel back to back in one frame, gathered from
// the offered storage as with PutAsync (strided shares packed into one
// recycled buffer sized for the offer), and are reusable when Offer
// returns; the frame counts as resident wire bytes until the send
// returns.
func (w *Window) Offer(c *Comm, to, subtag int, shares []Share) error {
	w.checkSubtag("offer", subtag)
	rank := c.Rank()
	n, packed := 0, 0
	for _, s := range shares {
		if err := s.Src.validate(len(s.Win.shared[rank].offered)); err != nil {
			return w.opErr("offer to", to, err)
		}
		n += 8 * s.Src.Count()
		packed += packBytes(s.Src)
	}
	if !sharedMemory(c.ep) {
		sh := &w.shared[rank]
		sh.pieces, sh.pack = sh.pieces[:0], packFor(sh.pack, packed)
		for _, s := range shares {
			sh.pieces, sh.pack = appendRuns(sh.pieces, sh.pack, s.Win.shared[rank].offered, s.Src)
		}
		prank := physOf(c.ep, rank)
		w.stats.WireAcquire(prank, int64(n))
		err := sendRetry(c.ep, c.pol, c.tr, w.opOffer, to, w.tag(subtag), gather{pieces: sh.pieces})
		w.stats.WireRelease(prank, int64(n))
		clear(sh.pieces) // hold no storage past the send
		if err != nil {
			return w.opErr("offer to", to, err)
		}
		return nil
	}
	if err := sendRetry(c.ep, c.pol, c.tr, w.opOffer, to, w.tag(subtag), gather{stands: n}); err != nil {
		return w.opErr("offer to", to, err)
	}
	for i, s := range shares {
		if firstOfWindow(shares, i) {
			s.Win.shared[rank].owed[to]++
		}
	}
	return nil
}

// firstOfWindow reports whether shares[i] starts a run of consecutive
// shares on one window: a pull returns one done token per such run, and
// the offer owes exactly as many.
func firstOfWindow(shares []Share, i int) bool {
	return i == 0 || shares[i-1].Win != shares[i].Win
}

// Pull completes one Offer from rank from on w's stream and the given
// subtag: each share's Src elements (in from's offered storage of the
// share's window) are stored into the Dr region of its Dst, which is any
// storage of the caller's — typically one no peer can see yet.  Each
// share's Src and Dr must cover the same element count, and both ends
// must describe the same shares.  On shared memory the caller copies the
// rects itself once the token arrives — whose receipt the transport books
// as the 8·count bytes it stands for, so counters and the arrival equal
// the framed path's — and then hands the offerer one
// zero-byte done token per window (per run of consecutive shares on it),
// which that window's Settle waits for; on other transports the received
// payload is applied share by share.  Completions on one (from, subtag)
// stream match offers in their issue order.
func (w *Window) Pull(c *Comm, from, subtag int, shares []Share) error {
	w.checkSubtag("pull", subtag)
	n := 0
	for _, s := range shares {
		if sc, dc := s.Src.Count(), s.Dr.Count(); sc != dc {
			panic(fmt.Sprintf("msg: window %s: pull count mismatch: src %d, dst %d", w.name, sc, dc))
		}
		if err := s.Dr.validate(len(s.Dst)); err != nil {
			return w.opErr("pull from", from, err)
		}
		n += 8 * s.Src.Count()
	}
	p, err := RecvRetry(c.ep, c.pol, c.tr, w.opPull, from, w.tag(subtag))
	if err != nil {
		return w.opErr("pull from", from, err)
	}
	if !sharedMemory(c.ep) {
		defer p.Release()
		prank := physOf(c.ep, c.Rank())
		if len(p.Data) != n {
			return w.opErr("pull from", from, fmt.Errorf("msg: offer of %d bytes, shares want %d", len(p.Data), n))
		}
		w.stats.WireAcquire(prank, int64(n))
		defer w.stats.WireRelease(prank, int64(n))
		off := 0
		for _, s := range shares {
			k := 8 * s.Src.Count()
			if err := ApplyRect(s.Dst, s.Dr, p.Data[off:off+k]); err != nil {
				return w.opErr("pull from", from, err)
			}
			off += k
		}
		return nil
	}
	for _, s := range shares {
		fbuf := s.Win.shared[from].offered
		if err := s.Src.validate(len(fbuf)); err != nil {
			return w.opErr("pull from", from, err)
		}
		CopyRect(s.Dst, s.Dr, fbuf, s.Src)
	}
	for i, s := range shares {
		if !firstOfWindow(shares, i) {
			continue
		}
		if err := SendRetry(c.ep, c.pol, c.tr, s.Win.opDone, from, s.Win.tag(doneSubtag), nil); err != nil {
			return w.opErr("pull from", from, err)
		}
	}
	return nil
}
