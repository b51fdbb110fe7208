package darray

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
)

// GatherTo collects the whole array on root as a dense column-major
// slice over the array's domain; other processors return nil.  Only
// primary owners contribute, so replicated arrays gather each element
// exactly once; each part travels as its grid's rects (AppendPart, then
// PlacePart).  Transport failures and size mismatches are returned as
// wrapped errors naming the array and the ranks involved.
func (a *Array) GatherTo(ctx *machine.Ctx, root int) ([]float64, error) {
	rank := ctx.Rank()
	own := &a.own[rank]
	own.stream = a.AppendPart(ctx, own.stream[:0])
	parts, err := ctx.Comm().Gather(root, own.stream)
	if err != nil {
		return nil, fmt.Errorf("darray: %s: gather to %d: %w", a.name, root, err)
	}
	if rank != root {
		return nil, nil
	}
	out := make([]float64, a.dom.Size())
	for r, part := range parts {
		if err := a.PlacePart(ctx, out, r, part); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AppendPart appends this rank's part of a gather to buf, its whole
// grid rect after rect of the grid's rects (nothing where the rank is
// not a primary owner), and returns the extended slice.
func (a *Array) AppendPart(ctx *machine.Ctx, buf []byte) []byte {
	rank := ctx.Rank()
	if !a.requireDist(rank).IsPrimaryRank(rank) {
		return buf
	}
	l := a.locals[rank]
	for _, r := range a.own[rank].rectsOf(&l.layout, l.grid) {
		buf = msg.PackRect(buf, l.data, r)
	}
	return buf
}

// PlacePart stores part, rank r's AppendPart, in out, the array's dense
// column-major image over its domain as GatherTo returns it: rect by rect
// into the rects r's grid has there.  A part whose size does not match
// r's grid is an error.
func (a *Array) PlacePart(ctx *machine.Ctx, out []float64, r int, part []byte) error {
	rank := ctx.Rank()
	d := a.requireDist(rank)
	if !d.IsPrimaryRank(r) {
		return nil
	}
	g := d.LocalGrid(r)
	if n := msg.Float64Count(part); n != g.Count() {
		return fmt.Errorf("darray: %s: gather at rank %d: contribution from rank %d has %d elements, want %d",
			a.name, rank, r, n, g.Count())
	}
	own := &a.own[rank]
	if own.dense.grid.Dims == nil {
		whole := index.Grid{Dims: make([]index.RunSet, a.dom.Rank())}
		for k := range whole.Dims {
			whole.Dims[k] = index.NewRunSet(index.NewRun(a.dom.Lo[k], a.dom.Hi[k], 1))
		}
		own.dense = newLayout(whole, nil, a.dom)
	}
	for _, rc := range own.rectsOf(&own.dense, g) {
		k := 8 * rc.Count()
		if err := msg.ApplyRect(out, rc, part[:k]); err != nil {
			return fmt.Errorf("darray: %s: gather at rank %d: part of rank %d: %w", a.name, rank, r, err)
		}
		part = part[k:]
	}
	return nil
}

// ReduceSum returns the sum of all owned elements across processors on
// every rank (replicas divide their contribution so each element counts
// once).
func (a *Array) ReduceSum(ctx *machine.Ctx) (float64, error) {
	rank := ctx.Rank()
	d := a.requireDist(rank)
	local := 0.0
	if d.IsPrimaryRank(rank) {
		l := a.locals[rank]
		l.ForEachOwned(func(_ index.Point, v *float64) { local += *v })
	}
	out, err := ctx.Comm().AllreduceF64([]float64{local}, msg.SumF64)
	if err != nil {
		return 0, fmt.Errorf("darray: %s: reduce at rank %d: %w", a.name, rank, err)
	}
	return out[0], nil
}
