package darray

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/trace"
)

// Asynchronous ghost exchange over one-sided windows.
//
// StartExchangeGhosts pushes this processor's boundary faces directly
// into its neighbours' ghost margins (msg.Window.PutAsync) and returns a
// GhostHandle immediately; the faces this processor is owed arrive
// whenever the neighbours start their own exchange.  GhostHandle.Wait
// blocks until every expected face has been deposited — a lightweight
// per-neighbour completion rather than a global barrier, which is what
// lets a stencil sweep compute its interior while the halos are still in
// flight (start → interior → Wait → peeled edges).
//
// Both sides derive the transfer geometry from their distribution
// descriptors, so puts carry payload only and the per-step
// message and byte counts are identical to the two-sided exchange this
// replaces (the §4 cost arguments keep holding).  Each array owns a
// window with a private tag subspace, so concurrent exchanges of
// different arrays — or of several dimensions of one array — can be in
// flight together without tag collisions.

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

// storageRect describes the storage region covering dimension k's local
// positions for global indices [aIdx..bIdx] (which may lie in the ghost
// margins; the dimension must be contiguous) and the full owned extents
// of every other dimension, in canonical pack order.  It reads only
// immutable Local geometry, so building a rect over a neighbour's Local
// is race-free.
func (l *Local) storageRect(k, aIdx, bIdx int) msg.Rect {
	r := msg.Rect{Dims: make([]msg.RectDim, len(l.shape))}
	off := 0
	for d := range l.shape {
		if d == k {
			off += l.li(k, aIdx) * l.strd[d]
			r.Dims[d] = msg.RectDim{Stride: l.strd[d], Count: bIdx - aIdx + 1}
		} else {
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

// ghostWait records one face this processor is owed.
type ghostWait struct {
	from   int
	subtag int
	dst    msg.Rect
	dim    int
}

// GhostHandle tracks an in-flight asynchronous ghost exchange.  Wait
// must be called exactly once per handle before the ghost cells are
// read; it is safe to call on a nil handle (a no-op, so callers may
// thread handles through optional paths).
type GhostHandle struct {
	a     *Array
	ctx   *machine.Ctx
	win   *msg.Window
	waits []ghostWait
	done  bool
	err   error
}

// StartExchangeGhosts begins refreshing the overlap areas of dimension
// k: boundary faces are put into the neighbours' ghost margins without
// waiting for the inbound faces.  Complete it with GhostHandle.Wait
// before reading this processor's own ghost cells.  See ExchangeGhosts
// for the synchronous semantics, clipping rules and error behaviour.
func (a *Array) StartExchangeGhosts(ctx *machine.Ctx, k int) (*GhostHandle, error) {
	h := &GhostHandle{a: a, ctx: ctx}
	if err := a.startGhostDim(ctx, k, h); err != nil {
		return nil, err
	}
	return h, nil
}

// StartExchangeAllGhosts begins the exchange of every dimension with a
// non-zero overlap, returning one handle that completes them all.  The
// dimensions' transfers are independent (faces carry owned cells only),
// so they ride different window subtags concurrently.
func (a *Array) StartExchangeAllGhosts(ctx *machine.Ctx) (*GhostHandle, error) {
	h := &GhostHandle{a: a, ctx: ctx}
	for k := 0; k < a.dom.Rank(); k++ {
		if err := a.startGhostDim(ctx, k, h); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// startGhostDim issues dimension k's outbound puts and records the
// inbound completions on h.
//
// A put writes straight into the neighbour's registered storage and reads
// the neighbour's Local for its geometry, so it must not run before the
// neighbour has committed the DISTRIBUTE this rank committed last.  The
// first exchange along k after a DISTRIBUTE therefore starts with a
// zero-byte signal to each neighbour — sent after this rank's own commit —
// and waits for the neighbour's signal before putting to it.  Signals ride
// the streams the faces do, ahead of them, so the neighbours' Waits see
// faces only.  Later exchanges need no signal: a neighbour cannot commit
// another DISTRIBUTE before it has waited for this rank's faces.
func (a *Array) startGhostDim(ctx *machine.Ctx, k int, h *GhostHandle) error {
	rank := ctx.Rank()
	d := a.requireDist(rank)
	if a.ghost[k] == 0 {
		return nil
	}
	td := d.ProcDim(k)
	if td < 0 {
		return nil // dimension not distributed: the full extent is local
	}
	l := a.locals[rank]
	coords, ok := d.Target().CoordsOf(rank)
	if !ok || l.Count() == 0 {
		return nil // outside the target or empty segment: nothing to exchange
	}
	lo, hi, okSeg := segDim(l, k)
	if !okSeg {
		panic(fmt.Sprintf("darray: %s: ghost exchange on non-contiguous dimension %d", a.name, k+1))
	}
	w := a.ghost[k]
	win := a.win
	h.win = win
	c := ctx.Comm()
	a.spans()
	defer ctx.Tracer().BeginSpan(rank, trace.CatGhost, a.ghostStartSpan).End()

	next := neighborRank(d, coords, td, +1)
	prev := neighborRank(d, coords, td, -1)

	stUp, stDn := ghostSubtag(k, 0), ghostSubtag(k, 1)
	fail := func(err error) error {
		return fmt.Errorf("darray: %s: ghost exchange dim %d: %w", a.name, k+1, err)
	}
	own := &a.own[rank]
	signal := own.signal&(1<<k) != 0
	if signal {
		own.signal &^= 1 << k
		if next >= 0 {
			if err := win.Signal(c, next, stUp); err != nil {
				return fail(err)
			}
		}
		if prev >= 0 {
			if err := win.Signal(c, prev, stDn); err != nil {
				return fail(err)
			}
		}
	}

	// Faces traveling upward: my top rows into next's low ghost margin.
	if next >= 0 {
		if signal {
			if err := win.AwaitSignal(c, next, stDn); err != nil {
				return fail(err)
			}
		}
		fw := min(w, hi-lo+1)
		ln := a.locals[next]
		nlo, _, nok := segDim(ln, k)
		if !nok {
			panic(fmt.Sprintf("darray: %s: ghost exchange on non-contiguous dimension %d", a.name, k+1))
		}
		src := l.storageRect(k, hi-fw+1, hi)
		dst := ln.storageRect(k, nlo-fw, nlo-1)
		if err := win.PutAsync(c, next, stUp, src, dst); err != nil {
			return fail(err)
		}
	}
	if prev >= 0 {
		if fw := min(w, dimCount(d, k, prev)); fw > 0 {
			h.waits = append(h.waits, ghostWait{prev, stUp, l.storageRect(k, lo-fw, lo-1), k})
		}
	}
	// Faces traveling downward: my bottom rows into prev's high margin.
	if prev >= 0 {
		if signal {
			if err := win.AwaitSignal(c, prev, stUp); err != nil {
				return fail(err)
			}
		}
		fw := min(w, hi-lo+1)
		lp := a.locals[prev]
		_, phi, pok := segDim(lp, k)
		if !pok {
			panic(fmt.Sprintf("darray: %s: ghost exchange on non-contiguous dimension %d", a.name, k+1))
		}
		src := l.storageRect(k, lo, lo+fw-1)
		dst := lp.storageRect(k, phi+1, phi+fw)
		if err := win.PutAsync(c, prev, stDn, src, dst); err != nil {
			return fail(err)
		}
	}
	if next >= 0 {
		if fw := min(w, dimCount(d, k, next)); fw > 0 {
			h.waits = append(h.waits, ghostWait{next, stDn, l.storageRect(k, hi+1, hi+fw), k})
		}
	}
	return nil
}

// Wait blocks until every face this processor is owed has been deposited
// in its ghost margins, completing the exchange.  A second Wait (or a
// Wait on a nil handle) returns the first completion's result without
// waiting again.
func (h *GhostHandle) Wait() error {
	if h == nil {
		return nil
	}
	if h.done {
		return h.err
	}
	h.done = true
	if len(h.waits) == 0 {
		return nil
	}
	c := h.ctx.Comm()
	defer h.ctx.Tracer().BeginSpan(h.ctx.Rank(), trace.CatGhost, h.a.ghostWaitSpan).End()
	for _, wt := range h.waits {
		if err := h.win.AwaitPut(c, wt.from, wt.subtag, wt.dst); err != nil {
			h.err = fmt.Errorf("darray: %s: ghost exchange dim %d: %w", h.a.name, wt.dim+1, err)
			return h.err
		}
	}
	return nil
}
