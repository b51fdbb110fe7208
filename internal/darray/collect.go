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
// exactly once.  Packing and root-side placement run span-by-span
// (contiguous runs move with copy-style loops, never per-point
// callbacks).  Transport failures and contribution-size mismatches are
// returned as wrapped errors naming the array and the ranks involved.
func (a *Array) GatherTo(ctx *machine.Ctx, root int) ([]float64, error) {
	rank := ctx.Rank()
	d := a.requireDist(rank)
	var payload []byte
	if d.IsPrimaryRank(rank) {
		l := a.locals[rank]
		own := &a.own[rank]
		payload = l.appendPacked(own.streamBuf(l.Count()), l.grid)
		own.stream = payload
	}
	parts, err := ctx.Comm().Gather(root, payload)
	if err != nil {
		return nil, fmt.Errorf("darray: %s: gather to %d: %w", a.name, root, err)
	}
	if rank != root {
		return nil, nil
	}
	out := make([]float64, a.dom.Size())
	for r := 0; r < ctx.NP(); r++ {
		if !d.IsPrimaryRank(r) {
			continue
		}
		g := d.LocalGrid(r)
		buf := parts[r]
		if msg.Float64Count(buf) != g.Count() {
			return nil, fmt.Errorf("darray: %s: gather at rank %d: contribution from rank %d has %d elements, want %d",
				a.name, root, r, msg.Float64Count(buf), g.Count())
		}
		off := 0
		g.ForEachRun(func(p index.Point, rn index.Run) bool {
			// dimension 0 of the dense domain has storage stride 1, so a
			// global run of stride s advances the offset by s.
			o := a.dom.Offset(p)
			for i := rn.Lo; i <= rn.Hi; i += rn.Stride {
				out[o] = msg.GetFloat64(buf, off)
				off += 8
				o += rn.Stride
			}
			return true
		})
	}
	return out, nil
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
