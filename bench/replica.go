package main

import (
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/msg"
)

// Step replicas.  Each workload's step is written here a second time,
// directly against the layer APIs and without the apps loop around it (no
// account() barrier sandwich, no Stats snapshots, no straggler wrappers, no
// per-point closures).  The final checksum must equal the app's bit for
// bit, so a replica that drifts from its app fails the benchmark.  Every
// call into a layer sits between rec.begin and rec.end; with a nil
// recorder that costs two nil checks.

// The initial grids and stencil coefficients are the apps' analytic ones.
const adiA, adiB, adiC = -1.0, 4.0, -1.0

func adiInitial(p index.Point) float64    { return float64((p[0]*31+p[1]*17)%13) - 6.0 }
func smoothInitial(p index.Point) float64 { return float64((p[0]*13+p[1]*7)%11) * 0.25 }

// newMachine builds a workload's machine the way its app does: the cost
// model on the in-process transport, or on TCP loopback under the CRC32C
// integrity layer.
func newMachine(tcp bool) (*machine.Machine, error) {
	cm := msg.NewCostModel(nProcs, modelAlpha, modelBeta)
	opts := []machine.Option{machine.WithCostModel(cm)}
	if tcp {
		t, err := msg.NewTCPTransport(nProcs, msg.WithCost(cm))
		if err != nil {
			return nil, err
		}
		opts = append(opts, machine.WithTransport(msg.NewIntegrityTransport(t)))
	}
	return machine.New(nProcs, opts...), nil
}

// barrier is Ctx.Barrier as a wait span.
func barrier(ctx *machine.Ctx, rec *recorder) error {
	id := rec.begin(ctx.Rank(), "machine.barrier")
	err := ctx.Barrier()
	rec.end(ctx.Rank(), id)
	return err
}

// rankZero stores v for the caller once rank 0 has it.
func rankZero(ctx *machine.Ctx, dst *float64, v float64) {
	if ctx.Rank() == 0 {
		*dst = v
	}
}

func replicaADI(p params, steps int, _ string, rec *recorder) (float64, error) {
	m, err := newMachine(false)
	if err != nil {
		return 0, err
	}
	defer m.Close()
	e := core.NewEngine(m)
	var sum float64
	err = m.Run(func(ctx *machine.Ctx) error {
		return adiBody(ctx, e, p, 0, steps, "", false, rec, &sum)
	})
	return sum, err
}

// replicaCkpt is a round of adi_ckpt_tcp: two machines, the second one
// restoring what the first one checkpointed.
func replicaCkpt(p params, steps int, dir string, rec *recorder) (float64, error) {
	if err := resetDir(dir); err != nil {
		return 0, err
	}
	var sum float64
	for half, span := range [][2]int{{0, steps / 2}, {steps / 2, steps}} {
		m, err := newMachine(true)
		if err != nil {
			return 0, err
		}
		e := core.NewEngine(m)
		e.SetCkptOptions(ckpt.Options{Keep: 2})
		restore := half == 1 && steps > 0
		err = m.Run(func(ctx *machine.Ctx) error {
			return adiBody(ctx, e, p, span[0], span[1], dir, restore, rec, &sum)
		})
		m.Close()
		if err != nil {
			return 0, err
		}
	}
	return sum, nil
}

// adiBody is Figure 1 on one rank: iterations it0..it1−1 of
// DISTRIBUTE (:,BLOCK) / x-sweep / DISTRIBUTE (BLOCK,:) / y-sweep, with a
// checkpoint every ckptEvery-th iteration when dir is set.
func adiBody(ctx *machine.Ctx, e *core.Engine, p params, it0, it1 int, dir string, restore bool, rec *recorder, sum *float64) error {
	rank := ctx.Rank()
	cols := core.DistSpec{Type: dist.NewType(dist.ElidedDim(), dist.BlockDim())}
	v, err := e.Declare(ctx, core.Decl{Name: "V", Domain: index.Dim(p.edge, p.edge), Dynamic: true, Init: &cols})
	if err != nil {
		return err
	}
	if restore {
		id := rec.begin(rank, "ckpt.restore")
		_, err := e.Restore(ctx, dir)
		rec.end(rank, id)
		if err != nil {
			return err
		}
	} else {
		v.FillFunc(ctx, adiInitial)
	}
	if err := ctx.Barrier(); err != nil {
		return err
	}
	scratch := make([]float64, p.edge)
	sweep := func(dim int, name string) {
		id := rec.begin(rank, name)
		l := v.Local(ctx)
		alloc, strd, data := l.AllocShape(), l.Stride(), l.Data()
		for li := 0; li < alloc[1-dim]; li++ {
			kernels.TridiagStrided(data, li*strd[1-dim], strd[dim], alloc[dim], adiA, adiB, adiC, scratch)
		}
		rec.end(rank, id)
	}
	distribute := func(dims ...dist.DimSpec) error {
		id := rec.begin(rank, "core.distribute")
		err := e.Distribute(ctx, []*core.Array{v}, core.DimsOf(dims...))
		rec.end(rank, id)
		return err
	}
	for it := it0; it < it1; it++ {
		step := rec.begin(rank, "step")
		if it > 0 {
			if err := distribute(dist.ElidedDim(), dist.BlockDim()); err != nil {
				return err
			}
		}
		sweep(0, "kernels.tridiag")
		if err := barrier(ctx, rec); err != nil {
			return err
		}
		if err := distribute(dist.BlockDim(), dist.ElidedDim()); err != nil {
			return err
		}
		sweep(1, "kernels.tridiag_strided")
		if err := barrier(ctx, rec); err != nil {
			return err
		}
		if dir != "" && (it+1)%ckptEvery == 0 {
			id := rec.begin(rank, "ckpt.save")
			_, err := e.CheckpointIter(ctx, dir, it)
			rec.end(rank, id)
			if err != nil {
				return err
			}
		}
		rec.end(rank, step)
	}
	s, err := v.DArray().ReduceSum(ctx)
	rankZero(ctx, sum, s)
	return err
}

func replicaSmooth(p params, steps int, _ string, rec *recorder) (float64, error) {
	m, err := newMachine(false)
	if err != nil {
		return 0, err
	}
	defer m.Close()
	e := core.NewEngine(m)
	var sum float64
	err = m.Run(func(ctx *machine.Ctx) error {
		rank := ctx.Rank()
		spec := core.DistSpec{
			Type:   dist.NewType(dist.BlockDim(), dist.BlockDim()),
			Target: m.ProcsDim("G", 2, 2).Whole(),
		}
		dom := index.Dim(p.edge, p.edge)
		src, err := e.Declare(ctx, core.Decl{Name: "U", Domain: dom, Dynamic: true, Init: &spec, Ghost: []int{1, 1}})
		if err != nil {
			return err
		}
		dst, err := e.Declare(ctx, core.Decl{Name: "V", Domain: dom, Dynamic: true, ConnectTo: "U", Ghost: []int{1, 1}})
		if err != nil {
			return err
		}
		src.FillFunc(ctx, smoothInitial)
		if err := ctx.Barrier(); err != nil {
			return err
		}
		for s := 0; s < steps; s++ {
			step := rec.begin(rank, "step")
			id := rec.begin(rank, "darray.ghost_start")
			h, err := src.StartExchangeAllGhosts(ctx)
			rec.end(rank, id)
			if err != nil {
				return err
			}
			ls, ld := src.Local(ctx), dst.Local(ctx)
			lo, hi, _ := ls.Segment()
			// The interior box reads no ghost cell: shrink every side that
			// has a neighbour by one point.
			in := [4]int{lo[0], hi[0], lo[1], hi[1]}
			if lo[0] > 1 {
				in[0]++
			}
			if hi[0] < p.edge {
				in[1]--
			}
			if lo[1] > 1 {
				in[2]++
			}
			if hi[1] < p.edge {
				in[3]--
			}
			id = rec.begin(rank, "kernels.smooth")
			smoothBox(ld, ls, in[0], in[1], in[2], in[3], p.edge)
			rec.end(rank, id)
			id = rec.begin(rank, "darray.ghost_wait")
			err = h.Wait()
			rec.end(rank, id)
			if err != nil {
				return err
			}
			// The rim: rows below and above the interior over the full
			// width, then the columns left and right of it.
			id = rec.begin(rank, "kernels.smooth")
			smoothBox(ld, ls, lo[0], hi[0], lo[1], in[2]-1, p.edge)
			smoothBox(ld, ls, lo[0], hi[0], in[3]+1, hi[1], p.edge)
			smoothBox(ld, ls, lo[0], in[0]-1, in[2], in[3], p.edge)
			smoothBox(ld, ls, in[1]+1, hi[0], in[2], in[3], p.edge)
			rec.end(rank, id)
			src, dst = dst, src
			rec.end(rank, step)
		}
		s, err := src.DArray().ReduceSum(ctx)
		rankZero(ctx, &sum, s)
		return err
	})
	return sum, err
}

// smoothBox applies one Jacobi step to the global box [i0..i1]×[j0..j1] of
// an n×n grid; points on the global boundary copy through.
func smoothBox(dst, src *darray.Local, i0, i1, j0, j1, n int) {
	if i0 > i1 || j0 > j1 {
		return
	}
	dd, sd := dst.Data(), src.Data()
	rowStride := src.Stride()[1]
	off := src.Offset(index.Point{i0, j0})
	w := i1 - i0 + 1
	for j := j0; j <= j1; j, off = j+1, off+rowStride {
		if j == 1 || j == n {
			copy(dd[off:off+w], sd[off:off+w])
			continue
		}
		a, b := 0, w // the span SmoothRow updates, relative to off
		if i0 == 1 {
			dd[off] = sd[off]
			a = 1
		}
		if i1 == n {
			dd[off+w-1] = sd[off+w-1]
			b = w - 1
		}
		if b > a {
			kernels.SmoothRow(dd, sd, off+a, b-a, rowStride)
		}
	}
}

func replicaPIC(p params, steps int, _ string, rec *recorder) (float64, error) {
	m, err := newMachine(false)
	if err != nil {
		return 0, err
	}
	defer m.Close()
	e := core.NewEngine(m)
	var sum float64
	err = m.Run(func(ctx *machine.Ctx) error {
		rank := ctx.Rank()
		dom := index.Dim(p.ncell)
		block := core.DistSpec{Type: dist.NewType(dist.BlockDim())}
		field, err := e.Declare(ctx, core.Decl{Name: "FIELD", Domain: dom, Dynamic: true, Init: &block})
		if err != nil {
			return err
		}
		count, err := e.Declare(ctx, core.Decl{Name: "COUNT", Domain: dom, Dynamic: true, ConnectTo: "FIELD"})
		if err != nil {
			return err
		}
		count.Fill(ctx, picInitPerCell)
		field.Fill(ctx, 0)
		if err := ctx.Barrier(); err != nil {
			return err
		}

		// balance is Figure 2's: gather the counts, cut them into equal
		// particle shares, DISTRIBUTE FIELD :: B_BLOCK(BOUNDS).
		balance := func() error {
			id := rec.begin(rank, "darray.gather")
			counts, err := count.GatherTo(ctx, 0)
			rec.end(rank, id)
			if err != nil {
				return err
			}
			var bounds []int
			if rank == 0 {
				bounds = picBounds(counts, nProcs)
			}
			id = rec.begin(rank, "msg.bcast_ints")
			bounds, err = ctx.Comm().BcastInts(0, bounds)
			rec.end(rank, id)
			if err != nil {
				return err
			}
			id = rec.begin(rank, "core.distribute")
			err = e.Distribute(ctx, []*core.Array{field}, core.DimsOf(dist.BBlockDim(bounds...)))
			rec.end(rank, id)
			if err != nil {
				return err
			}
			return barrier(ctx, rec)
		}
		if err := balance(); err != nil {
			return err
		}

		allreduce := func(v float64, op func(a, b float64) float64) (float64, error) {
			id := rec.begin(rank, "msg.allreduce")
			out, err := ctx.Comm().AllreduceF64([]float64{v}, op)
			rec.end(rank, id)
			if err != nil {
				return 0, err
			}
			return out[0], nil
		}

		for k := 1; k <= steps; k++ {
			step := rec.begin(rank, "step")
			lc, lf := count.Local(ctx), field.Local(ctx)
			cd, fd := lc.Data(), lf.Data()

			id := rec.begin(rank, "compute.update_field")
			picUpdateField(fd, cd)
			rec.end(rank, id)
			if err := barrier(ctx, rec); err != nil {
				return err
			}

			// update_part: the flow out of my last cell goes to the owner
			// of the next one.
			id = rec.begin(rank, "compute.move_right")
			lo, hi := 0, -1
			if lc.Count() > 0 {
				l, h, _ := lc.Segment()
				lo, hi = l[0], h[0]
			}
			out := picShift(cd, lo, hi, p.ncell, p.drift)
			rec.end(rank, id)
			d := count.Dist()
			id = rec.begin(rank, "msg.p2p")
			if hi >= lo && hi < p.ncell {
				if err := ctx.Endpoint().Send(d.Owner(index.Point{hi + 1}), picTag, msg.EncodeFloat64s([]float64{out, float64(hi + 1)})); err != nil {
					return err
				}
			}
			if hi >= lo && lo > 1 {
				pkt, err := ctx.Endpoint().Recv(d.Owner(index.Point{lo - 1}), picTag)
				if err != nil {
					return err
				}
				cd[0] += msg.DecodeFloat64s(pkt.Data)[0]
			}
			rec.end(rank, id)
			if err := barrier(ctx, rec); err != nil {
				return err
			}

			local := 0.0
			for _, c := range cd {
				local += c
			}
			tot, err := allreduce(local, msg.SumF64)
			if err != nil {
				return err
			}
			mx, err := allreduce(local, msg.MaxF64)
			if err != nil {
				return err
			}
			if k%picEvery == 0 && mx/(tot/nProcs) > picThreshold {
				if err := balance(); err != nil {
					return err
				}
			}
			rec.end(rank, step)
		}
		fields, err := field.GatherTo(ctx, 0)
		if err != nil {
			return err
		}
		if rank == 0 {
			for _, f := range fields {
				sum += f
			}
		}
		return nil
	})
	return sum, err
}

const picTag = 9100

// picUpdateField is update_field: work proportional to each cell's
// particle count, accumulated into the field.
func picUpdateField(field, count []float64) {
	for i, c := range count {
		acc := field[i]
		for w := 0; w < int(c)*picWork; w++ {
			acc += 1e-9 * float64(w%7)
		}
		field[i] = acc + c
	}
}

// picShift moves frac of every cell's particles one cell to the right
// within the segment [lo..hi] of an n-cell chain (the last cell reflects)
// and returns what leaves the segment.  All flows derive from the counts
// before the step, so the walk runs right to left.
func picShift(count []float64, lo, hi, n int, frac float64) (out float64) {
	for i := hi; i >= lo; i-- {
		if i == n {
			continue
		}
		mv := float64(int(count[i-lo] * frac))
		count[i-lo] -= mv
		if i == hi {
			out = mv
		} else {
			count[i-lo+1] += mv
		}
	}
	return out
}

// picBounds cuts the cells into np contiguous segments of roughly equal
// particle count: the balance() of Figure 2.
func picBounds(counts []float64, np int) []int {
	total := 0.0
	for _, c := range counts {
		total += c
	}
	per := total / float64(np)
	bounds := make([]int, np)
	acc, p := 0.0, 0
	for i, c := range counts {
		acc += c
		if acc >= per*float64(p+1) && p < np-1 {
			bounds[p] = i + 1
			p++
		}
	}
	for ; p < np; p++ {
		bounds[p] = len(counts)
	}
	return bounds
}

// picSerial is the oracle's model of the PIC run: the same physics on one
// dense array, with the processors reduced to the segment bounds.  It
// returns the field checksum and how often the run redistributes.
func picSerial(p params, steps int) (checksum float64, redists int) {
	count := make([]float64, p.ncell)
	field := make([]float64, p.ncell)
	for i := range count {
		count[i] = picInitPerCell
	}
	bounds := picBounds(count, nProcs)
	redists = 1
	for k := 1; k <= steps; k++ {
		picUpdateField(field, count)
		picShift(count, 1, p.ncell, p.ncell, p.drift)
		tot, mx, lo := 0.0, 0.0, 0
		for _, hi := range bounds {
			seg := 0.0
			for _, c := range count[lo:hi] {
				seg += c
			}
			tot, mx, lo = tot+seg, max(mx, seg), hi
		}
		if k%picEvery == 0 && mx/(tot/nProcs) > picThreshold {
			bounds = picBounds(count, nProcs)
			redists++
		}
	}
	for _, f := range field {
		checksum += f
	}
	return checksum, redists
}
