package darray

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/msg"
)

// Run-based data movement.  Every bulk transfer moves the elements of an
// index.Grid: a DISTRIBUTE as the grid's window rects (appendRects), a
// checkpoint or gather packed in canonical enumeration order.  Instead of
// visiting every point through a closure
// and computing its storage offset from scratch (a per-element walk over
// all dimensions), the routines here iterate Grid.ForEachRun: the offset
// of the outer dimensions is computed once per innermost span, the span
// itself advances by a constant storage step, and values are encoded into
// (or decoded from) the wire-format []byte directly — a span whose
// storage step is 1 with a single copy (msg.PutFloat64s/GetFloat64s), a
// strided one element by element; no intermediate []float64 and, with
// recycled buffers, no per-iteration allocation.

// dimSpan returns affine storage addressing for run r along dimension k:
// the local index of r.Lo and the local-index step between consecutive
// run elements.
//
// For contiguous (simple) dimensions the mapping is i - base, which is
// affine for any stride and also covers ghost indices outside the owned
// set.  For a non-contiguous dimension the local index is the position in
// the owned RunSet enumeration; that is affine exactly when r lies inside
// a single owned run and r.Stride is a multiple of that run's stride.
// Every grid the package moves is cut from owned sets by intersection
// (index.IntersectRuns keeps the lcm of the strides), so each of its runs
// lies inside one owned run: a run that does not is a bug, and panics.
func (l *layout) dimSpan(k int, r index.Run) (li0, step int) {
	if l.simple[k] {
		return r.Lo - l.base[k] + l.gLo[k], r.Stride
	}
	pos := 0
	for _, lr := range l.grid.Dims[k] {
		if lr.Contains(r.Lo) {
			if r.Hi > lr.Hi || r.Count() > 1 && r.Stride%lr.Stride != 0 {
				break
			}
			return pos + (r.Lo-lr.Lo)/lr.Stride + l.gLo[k], r.Stride / lr.Stride
		}
		pos += lr.Count()
	}
	panic(fmt.Sprintf("darray: run %v of dim %d is not affine in owned set %v", r, k+1, l.grid.Dims[k]))
}

// rowOffset returns the storage offset contribution of dimensions >= 1 of
// point p (the per-span constant part of the loc_map).
func (l *layout) rowOffset(p index.Point) int {
	off := 0
	for k := 1; k < len(p); k++ {
		off += l.li(k, p[k]) * l.strd[k]
	}
	return off
}

// span returns the storage offset of run r at p's outer position and the
// storage step between its elements.
func (l *layout) span(p index.Point, r index.Run) (off, step int) {
	li0, st := l.dimSpan(0, r)
	return l.rowOffset(p) + li0*l.strd[0], st * l.strd[0]
}

// appendRects appends g's regions of storage laid out by l to rects: one
// rect per product of g's per-dimension runs, dimension 0's run varying
// fastest, each rect's dimensions carved from the spare capacity of dims
// (rectCount(g)·rank entries, sized by the caller).  Both ends of a
// transfer enumerate the same grid, so their lists pair up rect by rect.
func (l *layout) appendRects(rects []msg.Rect, dims []msg.RectDim, g index.Grid) ([]msg.Rect, []msg.RectDim) {
	r := g.Rank()
	for i, n := 0, rectCount(g); i < n; i++ {
		rc := msg.Rect{Dims: dims[len(dims) : len(dims)+r : len(dims)+r]}
		dims = dims[:len(dims)+r]
		at := i // the mixed-radix digits of i select one run per dimension
		for k, rs := range g.Dims {
			run := rs[at%len(rs)]
			at /= len(rs)
			li0, step := l.dimSpan(k, run)
			rc.Off += li0 * l.strd[k]
			rc.Dims[k] = msg.RectDim{Stride: step * l.strd[k], Count: run.Count()}
		}
		rects = append(rects, rc)
	}
	return rects, dims
}

// rectCount is the number of rects appendRects makes of g.
func rectCount(g index.Grid) int {
	n := 1
	for _, rs := range g.Dims {
		n *= len(rs)
	}
	return n
}

// appendPacked appends the wire encoding (8 bytes per element, canonical
// grid order — identical to msg.EncodeFloat64s(packGrid(l, g))) of the
// values at g's points to buf and returns the extended slice.  Reusing
// the returned buffer across calls makes steady-state packing
// allocation-free apart from the span iterator itself.
func (l *Local) appendPacked(buf []byte, g index.Grid) []byte {
	var off int
	buf, off = msg.GrowFloat64s(buf, g.Count())
	data := l.data
	g.ForEachRun(func(p index.Point, r index.Run) bool {
		so, st := l.span(p, r)
		n := r.Count()
		if st == 1 {
			msg.PutFloat64s(buf, off, data[so:so+n])
			off += 8 * n
			return true
		}
		for ; n > 0; n-- {
			msg.PutFloat64(buf, off, data[so])
			off += 8
			so += st
		}
		return true
	})
	return buf
}

// unpackWire stores a wire payload (canonical grid order) at g's points —
// the fused decode+unpack counterpart of appendPacked.  The payload
// length must match the grid exactly.
func (l *Local) unpackWire(g index.Grid, buf []byte) {
	if n := msg.Float64Count(buf); n != g.Count() {
		panic(fmt.Sprintf("darray: unpack count mismatch: %d points, %d values", g.Count(), n))
	}
	off := 0
	data := l.data
	g.ForEachRun(func(p index.Point, r index.Run) bool {
		do, st := l.span(p, r)
		n := r.Count()
		if st == 1 {
			msg.GetFloat64s(data[do:do+n], buf, off)
			off += 8 * n
			return true
		}
		for ; n > 0; n-- {
			data[do] = msg.GetFloat64(buf, off)
			off += 8
			do += st
		}
		return true
	})
}

// AppendPacked appends the wire encoding (8 bytes per element, canonical
// grid order) of the values at g's points to buf and returns the extended
// slice.  Every point of g must be addressable on this Local.  This is the
// exported entry the checkpoint subsystem uses to serialize local spans
// with the same fused pack+encode path GatherTo uses.
func (l *Local) AppendPacked(buf []byte, g index.Grid) []byte {
	return l.appendPacked(buf, g)
}

// UnpackWire stores a wire payload (canonical grid order, as produced by
// AppendPacked) at g's points — the restore-side counterpart used by the
// checkpoint subsystem.  The payload length must match the grid exactly.
func (l *Local) UnpackWire(g index.Grid, buf []byte) {
	l.unpackWire(g, buf)
}

// UnpackPart stores at part's points their values out of payload, the
// wire encoding of whole in canonical order (AppendPacked of a Local
// owning whole); part is cut from whole by intersection.  A restore onto
// another number of ranks reads what it now owns of a saved rank file
// this way: payload is decoded as the storage of a ghostless layout of
// whole and copied by the span rule a DISTRIBUTE's self copy uses.
func (l *Local) UnpackPart(part, whole index.Grid, payload []byte) {
	src := Local{layout: newLayout(whole, nil, index.Domain{})}
	if n := msg.Float64Count(payload); n != src.size {
		panic(fmt.Sprintf("darray: unpack count mismatch: %d points, %d values", src.size, n))
	}
	src.data = make([]float64, src.size)
	msg.GetFloat64s(src.data, payload, 0)
	copyGrid(l, &src, part)
}

// copyGrid copies the values at g's points from src into dst (both must
// address every point of g) — the span-loop form of the redistribution
// local move and the NOTRANSFER keep.
func copyGrid(dst, src *Local, g index.Grid) {
	sd, dd := src.data, dst.data
	g.ForEachRun(func(p index.Point, r index.Run) bool {
		so, sst := src.span(p, r)
		do, dst0 := dst.span(p, r)
		n := r.Count()
		if sst == 1 && dst0 == 1 {
			copy(dd[do:do+n], sd[so:so+n])
			return true
		}
		for ; n > 0; n-- {
			dd[do] = sd[so]
			so += sst
			do += dst0
		}
		return true
	})
}

// streamBuf returns the single recycled pack buffer, emptied, with
// capacity for count elements.
func (b *rankState) streamBuf(count int) []byte {
	if cap(b.stream) < 8*count {
		b.stream = make([]byte, 0, 8*count)
	}
	return b.stream[:0]
}
