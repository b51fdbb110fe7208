package darray

import (
	"fmt"
	"slices"

	"repro/internal/index"
	"repro/internal/msg"
)

// Data movement.  Every array byte darray packs, applies or copies moves
// as msg rects through msg's one run walk (PackRect, ApplyRect,
// CopyRect).  A grid's rects (appendRects) come in the same order on any
// two layouts that hold the grid, so a DISTRIBUTE transfer, a gather
// part, a resized restore and a self-copy pair rect i of one end with
// rect i of the other.  A Local's whole owned set is one rect (Local.own):
// its owned local indices are contiguous in every dimension and ghosts
// only surround them, so that rect's order is the local canonical order
// a checkpoint's rank file holds.

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

// appendRects appends g's regions of storage laid out by l to rects: one
// rect per product of g's per-dimension runs, dimension 0's run varying
// fastest, each rect's dimensions carved from the spare capacity of dims
// (grown to rectCount(g)·rank entries).  Both ends of a transfer
// enumerate the same grid, so their lists pair up rect by rect.
func (l *layout) appendRects(rects []msg.Rect, dims []msg.RectDim, g index.Grid) ([]msg.Rect, []msg.RectDim) {
	r, n := g.Rank(), rectCount(g)
	rects, dims = slices.Grow(rects, n), slices.Grow(dims, n*r)
	for i := 0; i < n; i++ {
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

// rects returns g's rects in storage laid out by l in fresh slices.
func (l *layout) rects(g index.Grid) []msg.Rect {
	n := rectCount(g)
	rects, _ := l.appendRects(make([]msg.Rect, 0, n), make([]msg.RectDim, 0, n*g.Rank()), g)
	return rects
}

// AppendOwned appends the wire encoding of the whole owned set to buf,
// in local canonical order, and returns the extended slice: the segment
// a checkpoint's rank file holds for this Local (nothing if it is empty).
func (l *Local) AppendOwned(buf []byte) []byte {
	if l.size == 0 {
		return buf
	}
	return msg.PackRect(buf, l.data, l.own)
}

// ApplyOwned stores an AppendOwned payload into the owned set; its
// length must match the owned set exactly.
func (l *Local) ApplyOwned(payload []byte) error {
	if l.size == 0 && len(payload) == 0 {
		return nil
	}
	return msg.ApplyRect(l.data, l.own, payload)
}

// AppendPacked appends the wire encoding of g's values (all owned here) to
// buf, rect after rect of g's rects, and returns the extended slice.  A
// grid of one run per dimension is one rect, in canonical grid order.
func (l *Local) AppendPacked(buf []byte, g index.Grid) []byte {
	for _, r := range l.rects(g) {
		buf = msg.PackRect(buf, l.data, r)
	}
	return buf
}

// UnpackWire stores an AppendPacked payload of g at g's points.  The
// payload length must match the grid exactly.
func (l *Local) UnpackWire(g index.Grid, buf []byte) {
	if n := msg.Float64Count(buf); n != g.Count() {
		panic(fmt.Sprintf("darray: unpack count mismatch: %d points, %d values", g.Count(), n))
	}
	for _, r := range l.rects(g) {
		k := 8 * r.Count()
		if err := msg.ApplyRect(l.data, r, buf[:k]); err != nil {
			panic(err)
		}
		buf = buf[k:]
	}
}

// UnpackPart stores at part's points their values out of payload, a
// saved rank file's segment of whole (canonical order); part is cut from
// whole by intersection.  A restore onto another number of ranks reads
// its pieces so: payload is decoded as the storage of a ghostless layout
// of whole and copied out as a self-copy is.
func (l *Local) UnpackPart(part, whole index.Grid, payload []byte) {
	src := Local{layout: newLayout(whole, nil, index.Domain{})}
	if n := msg.Float64Count(payload); n != src.size {
		panic(fmt.Sprintf("darray: unpack count mismatch: %d points, %d values", src.size, n))
	}
	src.data = make([]float64, src.size)
	msg.GetFloat64s(src.data, payload, 0)
	copyPlan(&l.layout, &src.layout, part, nil, nil).copy(l.data, src.data)
}

// copyPlan is g's rects in src's storage and in dst's, pair by pair: a
// copy of g between two layouts that both hold it, its rects appended to
// rects and their dimensions carved from dims (appendRects).
func copyPlan(dst, src *layout, g index.Grid, rects []msg.Rect, dims []msg.RectDim) xfer {
	rects, dims = src.appendRects(rects, dims, g)
	n := len(rects)
	rects, _ = dst.appendRects(rects, dims, g)
	return xfer{src: rects[:n:n], dst: rects[n:]}
}

// copy copies each src rect of x out of src into its dst rect in dst.
func (x xfer) copy(dst, src []float64) {
	for i, dr := range x.dst {
		msg.CopyRect(dst, dr, src, x.src[i])
	}
}

// rectsOf returns g's rects in storage laid out by l in the rank's
// recycled rect list, valid until its next call.
func (b *rankState) rectsOf(l *layout, g index.Grid) []msg.Rect {
	b.rects, b.dims = l.appendRects(b.rects[:0], b.dims[:0], g)
	return b.rects
}
