package darray

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/trace"
)

// Asynchronous ghost exchange over one-sided windows.
//
// StartExchangeGhosts sends this processor's boundary faces to its
// neighbours (msg.Window.PutAsync) and returns a GhostHandle immediately;
// the faces this processor is owed arrive whenever the neighbours start
// their own exchange.  GhostHandle.Wait applies every expected face into
// this processor's ghost margins — a lightweight per-neighbour completion
// rather than a global barrier, which is what lets a stencil sweep
// compute its interior while the halos are still in flight (start →
// interior → Wait → peeled edges).  Only Wait writes the margins, so a
// neighbour that starts its next exchange early cannot touch cells this
// processor still reads.
//
// Each side derives the transfer geometry from its own distribution
// descriptor — the sender never reads a neighbour's Local — so puts carry
// payload only and the per-step message and byte counts are identical to
// the two-sided exchange this replaces (the §4 cost arguments keep
// holding).  Each array owns a window with a private tag subspace, so
// concurrent exchanges of different arrays — or of several dimensions of
// one array — can be in flight together without tag collisions.
//
// Corners.  A width-1 face covers the owned extent of every other
// dimension, as a 5-point stencil needs.  A wider face of dimension k
// also covers the ghost margins of every dimension before k, so that,
// exchanged in dimension order — dimension j's faces applied before
// dimension k's leave — the corner blocks travel forwarded through the
// face neighbours and the whole ring is filled (a depth-k halo computed
// over for several steps needs its corners).

// ghostSubtag returns the counted-stream subtag of dimension k's
// exchange in direction dir (0: faces travel toward higher ranks, 1:
// toward lower ranks).
func ghostSubtag(k, dir int) int {
	st := 1 + 2*k + dir
	if st >= redistSubtag {
		panic(fmt.Sprintf("darray: ghost exchange dimension %d exceeds the window subtag space", k+1))
	}
	return st
}

// ghostFace is one face of a rank's ghost exchange: the neighbour it goes
// to or comes from, the window stream it rides and the region of this
// rank's storage it leaves from or lands in.
type ghostFace struct {
	peer, subtag int
	rect         msg.Rect
}

// ghostDim is one dimension's exchange as a rank runs it.
type ghostDim struct {
	send, recv []ghostFace
}

// ghostPlan is a rank's ghost exchange under one committed distribution.
// Its faces depend only on the descriptor and the ghost widths, so the
// first exchange after a commit builds it and every later one reuses it:
// a warm exchange allocates no rect and no neighbour list.
type ghostPlan struct {
	d    *dist.Distribution
	dims []ghostDim
}

// ghostPlanOf returns rank's exchange plan under its current distribution
// d, building it if d is new.  Faces clip to min(ghost width, segment
// width) on each side; a dimension that is not distributed, or a rank
// outside the target or with an empty segment, exchanges nothing.
func (a *Array) ghostPlanOf(rank int, d *dist.Distribution) *ghostPlan {
	g := &a.own[rank].ghosts
	if g.d == d {
		return g
	}
	*g = ghostPlan{d: d, dims: make([]ghostDim, a.dom.Rank())}
	l := a.locals[rank]
	coords, ok := d.Target().CoordsOf(rank)
	if !ok || l.Count() == 0 {
		return g
	}
	for k := range g.dims {
		w, td := a.ghost[k], d.ProcDim(k)
		if w == 0 || td < 0 {
			continue
		}
		lo, hi, ok := segDim(l, k)
		if !ok {
			panic(fmt.Sprintf("darray: %s: ghost exchange on non-contiguous dimension %d", a.name, k+1))
		}
		fw := min(w, hi-lo+1)
		stUp, stDn := ghostSubtag(k, 0), ghostSubtag(k, 1)
		gd := &g.dims[k]
		// Faces travelling upward leave my top rows for next's low margin
		// and arrive from prev in mine; downward ones the other way.
		if next := neighborRank(d, coords, td, +1); next >= 0 {
			gd.send = append(gd.send, ghostFace{next, stUp, l.faceRect(k, hi-fw+1, hi, w > 1)})
			if nw := min(w, dimCount(d, k, next)); nw > 0 {
				gd.recv = append(gd.recv, ghostFace{next, stDn, l.faceRect(k, hi+1, hi+nw, w > 1)})
			}
		}
		if prev := neighborRank(d, coords, td, -1); prev >= 0 {
			gd.send = append(gd.send, ghostFace{prev, stDn, l.faceRect(k, lo, lo+fw-1, w > 1)})
			if pw := min(w, dimCount(d, k, prev)); pw > 0 {
				gd.recv = append(gd.recv, ghostFace{prev, stUp, l.faceRect(k, lo-pw, lo-1, w > 1)})
			}
		}
	}
	return g
}

// faceRect describes the storage region covering dimension k's local
// positions for global indices [aIdx..bIdx] (which may lie in the ghost
// margins; the dimension must be contiguous) and, in every other
// dimension, the owned extent — widened by the ghost margins in the
// dimensions before k when corners is set — in canonical pack order.
// Both ends of a face build it over the same extents: neighbours along k
// own the same indices in every other dimension, and their margins there
// are clipped alike.
func (l *Local) faceRect(k, aIdx, bIdx int, corners bool) msg.Rect {
	r := msg.Rect{Dims: make([]msg.RectDim, len(l.shape))}
	off := 0
	for d := range l.shape {
		switch {
		case d == k:
			off += l.li(k, aIdx) * l.strd[d]
			r.Dims[d] = msg.RectDim{Stride: l.strd[d], Count: bIdx - aIdx + 1}
		case corners && d < k:
			r.Dims[d] = msg.RectDim{Stride: l.strd[d], Count: l.alloc[d]}
		default:
			// Owned cells occupy the contiguous local positions
			// gLo[d]..gLo[d]+shape[d]-1 regardless of the global run
			// structure, in enumeration (pack) order.
			off += l.gLo[d] * l.strd[d]
			r.Dims[d] = msg.RectDim{Stride: l.strd[d], Count: l.shape[d]}
		}
	}
	r.Off = off
	return r
}

// GhostHandle tracks an in-flight asynchronous ghost exchange.  Wait
// must be called exactly once per handle before the ghost cells are
// read; it is safe to call on a nil handle (a no-op, so callers may
// thread handles through optional paths).
type GhostHandle struct {
	a    *Array
	ctx  *machine.Ctx
	plan *ghostPlan
	dims uint64 // dimensions started and not yet applied
	done bool
	err  error
}

// StartExchangeGhosts begins refreshing the overlap areas of dimension
// k: each processor sends its boundary faces to the neighbouring
// processors along that dimension's target dimension without waiting for
// the inbound faces; GhostHandle.Wait applies the neighbours' faces into
// its own ghost margins and must run before this processor reads them.
// Overlap areas are the mechanism the VFE uses to satisfy
// nearest-neighbour non-local references (§3.2: "the associated overlap
// areas"); a 5-point smoothing step needs one exchange per distributed
// dimension per sweep, which is exactly the message pattern analyzed in
// §4 (2 messages per processor for a column distribution, 4 for a 2-D
// block distribution).
//
// The dimension must be contiguous (block-family or elided).  Ghost
// areas are clipped at the domain boundary (non-periodic), and the
// exchanged face width is min(ghost width, neighbour segment width) —
// with degenerate segments thinner than the overlap, the farther ghost
// rows stay stale (only nearest neighbours exchange).  With a ghost width
// above 1 the faces carry the margins of the dimensions before k (see
// Corners above), so start dimension k only after those dimensions'
// handles were waited.
//
// Programmer errors (ghost exchange on a non-contiguous dimension) panic;
// transport failures are returned as errors wrapping the underlying
// cause.  The exchange runs under the machine's msg.RetryPolicy, so a
// lost face surfaces as a wrapped timeout instead of blocking forever.
func (a *Array) StartExchangeGhosts(ctx *machine.Ctx, k int) (*GhostHandle, error) {
	h := &GhostHandle{a: a, ctx: ctx}
	if err := h.start(k); err != nil {
		return nil, err
	}
	return h, nil
}

// StartExchangeAllGhosts begins the exchange of every dimension with a
// non-zero overlap, returning one handle that completes them all.  Width-1
// dimensions' transfers are independent (faces carry owned cells only),
// so they ride different window subtags concurrently; before a dimension
// whose faces carry corners starts, the dimensions before it are waited
// for, and only the last such dimension is left in flight.
func (a *Array) StartExchangeAllGhosts(ctx *machine.Ctx) (*GhostHandle, error) {
	h := &GhostHandle{a: a, ctx: ctx}
	for k := 0; k < a.dom.Rank(); k++ {
		if a.ghost[k] > 1 {
			if err := h.apply(); err != nil {
				return nil, err
			}
		}
		if err := h.start(k); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// start issues dimension k's outbound puts and marks its inbound faces
// as owed on h.
func (h *GhostHandle) start(k int) error {
	a, ctx := h.a, h.ctx
	rank := ctx.Rank()
	d := a.requireDist(rank)
	if a.ghost[k] == 0 {
		return nil
	}
	h.plan = a.ghostPlanOf(rank, d)
	gd := &h.plan.dims[k]
	if len(gd.send) == 0 && len(gd.recv) == 0 {
		return nil
	}
	h.dims |= 1 << k
	c := ctx.Comm()
	a.spans()
	defer ctx.Tracer().BeginSpan(rank, trace.CatGhost, a.ghostStartSpan).End()
	for _, f := range gd.send {
		// The target applies the face through its own rect; the put
		// names only this side's.
		if err := a.win.PutAsync(c, f.peer, f.subtag, f.rect, f.rect); err != nil {
			return fmt.Errorf("darray: %s: ghost exchange dim %d: %w", a.name, k+1, err)
		}
	}
	return nil
}

// Wait blocks until every face this processor is owed has arrived and
// applies it into its ghost margins, completing the exchange.  A second
// Wait (or a Wait on a nil handle) returns the first completion's result
// without waiting again.
func (h *GhostHandle) Wait() error {
	if h == nil {
		return nil
	}
	if h.done {
		return h.err
	}
	h.done = true
	h.err = h.apply()
	return h.err
}

// apply awaits and applies the faces of every dimension started since
// the last apply, in dimension order.
func (h *GhostHandle) apply() error {
	if h.dims == 0 {
		return nil
	}
	c := h.ctx.Comm()
	defer h.ctx.Tracer().BeginSpan(h.ctx.Rank(), trace.CatGhost, h.a.ghostWaitSpan).End()
	for k := range h.plan.dims {
		if h.dims&(1<<k) == 0 {
			continue
		}
		h.dims &^= 1 << k
		for _, f := range h.plan.dims[k].recv {
			if err := h.a.win.AwaitPut(c, f.peer, f.subtag, f.rect); err != nil {
				return fmt.Errorf("darray: %s: ghost exchange dim %d: %w", h.a.name, k+1, err)
			}
		}
	}
	return nil
}
