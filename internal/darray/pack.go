package darray

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/msg"
)

// Run-based data movement.  All bulk transfers (redistribution, ghost
// faces, gather/scatter) move the elements of an index.Grid in canonical
// enumeration order.  Instead of visiting every point through a closure
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
// run elements.  ok is false when the run does not map to an arithmetic
// progression in local storage (it straddles several runs of a
// non-contiguous owned set), in which case callers fall back to
// per-element addressing.
//
// For contiguous (simple) dimensions the mapping is i - base, which is
// affine for any stride and also covers ghost indices outside the owned
// set.  For a non-contiguous dimension the local index is the position in
// the owned RunSet enumeration; that is affine exactly when r lies inside
// a single owned run and r.Stride is a multiple of that run's stride —
// true for every transfer grid produced by per-dimension intersection
// with a single-run distribution, and checked here rather than assumed.
func (l *layout) dimSpan(k int, r index.Run) (li0, step int, ok bool) {
	if l.simple[k] {
		return r.Lo - l.base[k] + l.gLo[k], r.Stride, true
	}
	pos := 0
	for _, lr := range l.grid.Dims[k] {
		if r.Lo >= lr.Lo && r.Lo <= lr.Hi {
			if (r.Lo-lr.Lo)%lr.Stride != 0 || r.Hi > lr.Hi || r.Stride%lr.Stride != 0 {
				return 0, 0, false
			}
			return pos + (r.Lo-lr.Lo)/lr.Stride + l.gLo[k], r.Stride / lr.Stride, true
		}
		pos += lr.Count()
	}
	return 0, 0, false
}

// rowOffset returns the storage offset contribution of dimensions >= 1 of
// point p (the per-span constant part of the loc_map).
func (l *Local) rowOffset(p index.Point) int {
	off := 0
	for k := 1; k < len(p); k++ {
		off += l.li(k, p[k]) * l.strd[k]
	}
	return off
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
		row := l.rowOffset(p)
		if li0, step, ok := l.dimSpan(0, r); ok {
			so := row + li0*l.strd[0]
			st := step * l.strd[0]
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
		} else {
			for i := r.Lo; i <= r.Hi; i += r.Stride {
				msg.PutFloat64(buf, off, data[row+l.li(0, i)*l.strd[0]])
				off += 8
			}
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
		row := l.rowOffset(p)
		if li0, step, ok := l.dimSpan(0, r); ok {
			do := row + li0*l.strd[0]
			st := step * l.strd[0]
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
		} else {
			for i := r.Lo; i <= r.Hi; i += r.Stride {
				data[row+l.li(0, i)*l.strd[0]] = msg.GetFloat64(buf, off)
				off += 8
			}
		}
		return true
	})
}

// AppendPacked appends the wire encoding (8 bytes per element, canonical
// grid order) of the values at g's points to buf and returns the extended
// slice.  Every point of g must be addressable on this Local.  This is the
// exported entry the checkpoint subsystem uses to serialize local spans
// with the same fused pack+encode path redistribution uses.
func (l *Local) AppendPacked(buf []byte, g index.Grid) []byte {
	return l.appendPacked(buf, g)
}

// UnpackWire stores a wire payload (canonical grid order, as produced by
// AppendPacked) at g's points — the restore-side counterpart used by the
// checkpoint subsystem.  The payload length must match the grid exactly.
func (l *Local) UnpackWire(g index.Grid, buf []byte) {
	l.unpackWire(g, buf)
}

// copyGrid copies the values at g's points from src into dst (both must
// address every point of g) — the span-loop form of the redistribution
// local move and the NOTRANSFER keep.
func copyGrid(dst, src *Local, g index.Grid) {
	sd, dd := src.data, dst.data
	g.ForEachRun(func(p index.Point, r index.Run) bool {
		srow, drow := src.rowOffset(p), dst.rowOffset(p)
		sli, sstep, sok := src.dimSpan(0, r)
		dli, dstep, dok := dst.dimSpan(0, r)
		if sok && dok {
			so := srow + sli*src.strd[0]
			do := drow + dli*dst.strd[0]
			sst, dst0 := sstep*src.strd[0], dstep*dst.strd[0]
			if sst == 1 && dst0 == 1 {
				copy(dd[do:do+r.Count()], sd[so:so+r.Count()])
				return true
			}
			for n := r.Count(); n > 0; n-- {
				dd[do] = sd[so]
				so += sst
				do += dst0
			}
			return true
		}
		for i := r.Lo; i <= r.Hi; i += r.Stride {
			dd[drow+dst.li(0, i)*dst.strd[0]] = sd[srow+src.li(0, i)*src.strd[0]]
		}
		return true
	})
}

// streamBuf returns the single recycled streaming pack buffer, emptied,
// with capacity for count elements.  There is one buffer, not one per
// peer: ring rounds pack one peer at a time and hand the buffer to Send
// before packing the next, which is exactly what keeps their peak
// residency to a single transfer.
func (b *rankState) streamBuf(count int) []byte {
	if cap(b.stream) < 8*count {
		b.stream = make([]byte, 0, 8*count)
	}
	return b.stream[:0]
}
