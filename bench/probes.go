package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/redist"
)

// Layer probes: each times one public entry point of one package, at the
// size the workload that depends on it uses, on a machine that outlives
// the measurement.  Every probe warms up once and reports the median of
// its timed batches.  Bandwidths count computed bytes (elements × 8), not
// bytes the memory system moved; all the arrays here fit the box's caches
// (4 MiB L2 per core, a 260 MiB host L3), so they say how fast the code
// runs out of cache, not what DRAM sustains.

const (
	probeEdge    = 1024 // ADI grid edge
	probeBatches = 7
)

// timeBatches calls f once to warm up, then probeBatches times, and returns
// the median seconds per call.
func timeBatches(f func()) float64 {
	f()
	d := make([]float64, probeBatches)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = time.Since(t0).Seconds()
	}
	return median(d)
}

// probeOp is one timed operation of an SPMD probe: iters calls per batch.
type probeOp struct {
	iters int
	fn    func(i int) error
}

// spmd runs an SPMD probe on a fresh machine (collective constructors pair
// up by call order, so arrays declared in a second Run would adopt the
// first Run's objects).  setup runs on every rank and returns the rank's
// operations; they are timed one after the other, each with a warm-up
// batch and probeBatches timed batches fenced by barriers.  It returns
// rank 0's median seconds per call for each operation.
func spmd(m *machine.Machine, setup func(ctx *machine.Ctx) ([]probeOp, error)) ([]float64, error) {
	var out []float64
	err := m.Run(func(ctx *machine.Ctx) error {
		ops, err := setup(ctx)
		if err != nil {
			return err
		}
		for _, op := range ops {
			d := make([]float64, 0, probeBatches)
			n := 0
			for b := -1; b < probeBatches; b++ {
				if err := ctx.Barrier(); err != nil {
					return err
				}
				t0 := time.Now()
				for i := 0; i < op.iters; i, n = i+1, n+1 {
					if err := op.fn(n); err != nil {
						return err
					}
				}
				if err := ctx.Barrier(); err != nil {
					return err
				}
				if b >= 0 {
					d = append(d, time.Since(t0).Seconds()/float64(op.iters))
				}
			}
			if ctx.Rank() == 0 {
				out = append(out, median(d))
			}
		}
		return nil
	})
	return out, err
}

// spmd1 is spmd for a probe with one operation.
func spmd1(m *machine.Machine, iters int, setup func(ctx *machine.Ctx) (func(int) error, error)) (float64, error) {
	out, err := spmd(m, func(ctx *machine.Ctx) ([]probeOp, error) {
		fn, err := setup(ctx)
		return []probeOp{{iters, fn}}, err
	})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// runProbes fills mm with every layer probe's metrics.
func runProbes(mm map[string]metric, dir string) error {
	probeKernels(mm)
	probeCodec(mm)
	for _, f := range []func(map[string]metric) error{
		probeP2P, probeMachine, probeComm, probeWindow, probeGhost, probePack, probeRedist, probeBBlock, probeSetup,
	} {
		if err := f(mm); err != nil {
			return err
		}
	}
	return probeCkpt(mm, dir)
}

func probeKernels(mm map[string]metric) {
	const n, lines = probeEdge, probeEdge / nProcs // one rank's block of the ADI grid
	data := make([]float64, n*lines)
	scratch := make([]float64, n)
	refill := func() { // repeated solves would decay the data into denormals
		for i := range data {
			data[i] = float64(i%13) - 6
		}
	}
	solve := func(lineStep, stride int) float64 {
		d := make([]float64, probeBatches)
		for b := range d {
			refill()
			t0 := time.Now()
			for li := 0; li < lines; li++ {
				kernels.TridiagStrided(data, li*lineStep, stride, n, adiA, adiB, adiC, scratch)
			}
			d[b] = time.Since(t0).Seconds()
		}
		return median(d) / (n * lines) * 1e9
	}
	mm["kernels.tridiag_ns_per_elem"] = metric{solve(n, 1), "ns"}
	mm["kernels.tridiag_strided_ns_per_elem"] = metric{solve(1, lines), "ns"}

	// SmoothRow over a 1024×1024 block inside its ghost margin, and a copy
	// of the same bytes as the memory-bandwidth yardstick.
	const e, row = probeEdge, probeEdge + 2
	src, dst := make([]float64, row*row), make([]float64, row*row)
	for i := range src {
		src[i] = float64(i%11) * 0.25
	}
	smooth := timeBatches(func() {
		for j := 1; j <= e; j++ {
			kernels.SmoothRow(dst, src, j*row+1, e, row)
		}
	})
	mm["kernels.smooth_ns_per_point"] = metric{smooth / (e * e) * 1e9, "ns"}
	cp := timeBatches(func() { copy(dst[:e*e], src[:e*e]) })
	mm["membw.copy_gbps"] = metric{e * e * 8 / cp / 1e9, "GB/s"}
}

func probeCodec(mm map[string]metric) {
	const n = 2 << 20 / 8 // 2 MB: one rank's share of the ADI grid
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	buf := make([]byte, 0, 8*n)
	enc := timeBatches(func() { buf = msg.AppendFloat64s(buf[:0], vals) })
	dec := timeBatches(func() { msg.DecodeFloat64sInto(vals, buf) })
	mm["msg.codec.encode_gbps"] = metric{8 * n / enc / 1e9, "GB/s"}
	mm["msg.codec.decode_gbps"] = metric{8 * n / dec / 1e9, "GB/s"}
}

// pingPong measures a round trip of size bytes between endpoints 0 and 1
// of t and returns the one-way seconds.
func pingPong(t msg.Transport, size, iters int) (float64, error) {
	const tag = 7
	a, b := t.Endpoint(0), t.Endpoint(1)
	payload := make([]byte, size)
	echoErr := make(chan error, 1)
	total := (probeBatches + 1) * iters
	go func() {
		for i := 0; i < total; i++ {
			p, err := b.Recv(0, tag)
			if err == nil {
				err = b.Send(0, tag, p.Data)
			}
			if err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	var err error
	rtt := timeBatches(func() {
		for i := 0; i < iters && err == nil; i++ {
			if err = a.Send(1, tag, payload); err == nil {
				_, err = a.Recv(1, tag)
			}
		}
	})
	if err != nil {
		return 0, err
	}
	if err := <-echoErr; err != nil {
		return 0, err
	}
	return rtt / float64(iters) / 2, nil
}

func probeP2P(mm map[string]metric) error {
	tcp := func() (msg.Transport, error) { return msg.NewTCPTransport(2) }
	for _, tr := range []struct {
		name string
		make func() (msg.Transport, error)
		lat  bool
	}{
		{"chan", func() (msg.Transport, error) { return msg.NewChanTransport(2), nil }, true},
		{"tcp", tcp, true},
		{"integrity", func() (msg.Transport, error) {
			t, err := tcp()
			if err != nil {
				return nil, err
			}
			return msg.NewIntegrityTransport(t), nil
		}, false},
	} {
		t, err := tr.make()
		if err != nil {
			return err
		}
		if tr.lat {
			lat, err := pingPong(t, 64, 400)
			if err != nil {
				t.Close()
				return err
			}
			mm["msg."+tr.name+".lat_us_64b"] = metric{lat * 1e6, "us"}
		}
		bw, err := pingPong(t, 1<<20, 8)
		t.Close()
		if err != nil {
			return err
		}
		mm["msg."+tr.name+".bw_mbps_1mb"] = metric{float64(1<<20) / bw / 1e6, "MB/s"}
	}
	return nil
}

func probeMachine(mm map[string]metric) error {
	nc := timeBatches(func() {
		for i := 0; i < 20; i++ {
			machine.New(nProcs).Close()
		}
	})
	mm["machine.new_close_us"] = metric{nc / 20 * 1e6, "us"}
	var err error
	tcp := timeBatches(func() {
		var m *machine.Machine
		if m, err = newMachine(true); err == nil {
			m.Close()
		}
	})
	if err != nil {
		return err
	}
	mm["machine.new_close_tcp_ms"] = metric{tcp * 1e3, "ms"}
	m := machine.New(nProcs)
	defer m.Close()
	spawn := timeBatches(func() {
		for i := 0; i < 20 && err == nil; i++ {
			err = m.Run(func(*machine.Ctx) error { return nil })
		}
	})
	mm["machine.run_spawn_us"] = metric{spawn / 20 * 1e6, "us"}
	return err
}

func probeComm(mm map[string]metric) error {
	m := machine.New(nProcs)
	defer m.Close()
	out, err := spmd(m, func(ctx *machine.Ctx) ([]probeOp, error) {
		one := []float64{float64(ctx.Rank())}
		bounds := []int{128, 256, 384, 512}
		// 2 MB per rank in four equal parts: the cols↔rows exchange of the
		// 1024² grid, without the pack and unpack around it.
		send := make([][]byte, nProcs)
		for i := range send {
			send[i] = make([]byte, 2<<20/nProcs)
		}
		c := ctx.Comm()
		return []probeOp{
			{300, func(int) error { return ctx.Barrier() }},
			{300, func(int) error { _, err := c.AllreduceF64(one, msg.SumF64); return err }},
			{300, func(int) error { _, err := c.BcastInts(0, bounds); return err }},
			{4, func(int) error { _, err := c.Alltoallv(send); return err }},
		}, nil
	})
	if err != nil {
		return err
	}
	mm["msg.comm.barrier_us"] = metric{out[0] * 1e6, "us"}
	mm["msg.comm.allreduce_us"] = metric{out[1] * 1e6, "us"}
	mm["msg.comm.bcast_ints_us"] = metric{out[2] * 1e6, "us"}
	mm["msg.comm.alltoallv_ms_2mb"] = metric{out[3] * 1e3, "ms"}
	return nil
}

// probeWindow times a 16 KB counted put and its await between the pairs
// (0,1) and (2,3): one halo edge of the 2048² block2d grid.
func probeWindow(mm map[string]metric) error {
	const n = 16 << 10 / 8
	m := machine.New(nProcs)
	defer m.Close()
	w := msg.NewWindow(nProcs, "probe", m.Stats(), nil)
	sec, err := spmd1(m, 200, func(ctx *machine.Ctx) (func(int) error, error) {
		w.Register(ctx.Rank(), make([]float64, 2*n))
		peer := ctx.Rank() ^ 1
		src, dst := msg.RectRun(0, n), msg.RectRun(n, n)
		return func(int) error {
			if err := w.PutAsync(ctx.Comm(), peer, 1, src, dst); err != nil {
				return err
			}
			return w.AwaitPut(ctx.Comm(), peer, 1, dst)
		}, nil
	})
	mm["msg.window.put_us_16kb"] = metric{sec * 1e6, "us"}
	return err
}

func probeGhost(mm map[string]metric) error {
	const edge, iters = 2048, 100
	m := machine.New(nProcs)
	defer m.Close()
	dom := index.Dim(edge, edge)
	d := dist.MustNew(dist.NewType(dist.BlockDim(), dist.BlockDim()), dom, m.ProcsDim("G", 2, 2).Whole())
	sec, err := spmd1(m, iters, func(ctx *machine.Ctx) (func(int) error, error) {
		a := darray.New(ctx, "ghost", dom, d, darray.WithGhost(1, 1))
		a.Fill(ctx, 1)
		return func(int) error { return a.ExchangeAllGhosts(ctx) }, nil
	})
	if err != nil {
		return err
	}
	traffic := m.Stats().Snapshot()
	calls := float64((probeBatches + 1) * iters)
	mm["darray.ghost.exchange_us"] = metric{sec * 1e6, "us"}
	mm["darray.ghost.msgs"] = metric{float64(traffic.TotalDataMsgs()) / calls, "count"}
	mm["darray.ghost.bytes"] = metric{float64(traffic.TotalBytes()) / calls, "bytes"}
	return nil
}

// adiDists returns the two distributions the ADI step alternates between.
func adiDists(m *machine.Machine, edge int) (dom index.Domain, cols, rows *dist.Distribution) {
	dom = index.Dim(edge, edge)
	tg := m.ProcsDim("$P", nProcs).Whole()
	cols = dist.MustNew(dist.NewType(dist.ElidedDim(), dist.BlockDim()), dom, tg)
	rows = dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), dom, tg)
	return dom, cols, rows
}

// probePack times the fused pack+encode and decode+unpack of rank 0's
// block of the (:,BLOCK) grid: the whole block (contiguous) and the part
// that goes to rank 1 under (BLOCK,:) (256-element runs, strided).
func probePack(mm map[string]metric) error {
	m := machine.New(nProcs)
	defer m.Close()
	dom, cols, rows := adiDists(m, probeEdge)
	return m.Run(func(ctx *machine.Ctx) error {
		a := darray.New(ctx, "pack", dom, cols)
		if ctx.Rank() != 0 {
			return nil
		}
		l := a.Local(ctx)
		whole, part := l.Grid(), cols.LocalGrid(0).Intersect(rows.LocalGrid(1))
		var buf []byte
		pack := timeBatches(func() { buf = l.AppendPacked(buf[:0], whole) })
		unpack := timeBatches(func() { l.UnpackWire(whole, buf) })
		strided := timeBatches(func() { buf = l.AppendPacked(buf[:0], part) })
		mm["darray.pack_gbps"] = metric{float64(8*whole.Count()) / pack / 1e9, "GB/s"}
		mm["darray.unpack_gbps"] = metric{float64(8*whole.Count()) / unpack / 1e9, "GB/s"}
		mm["darray.pack_strided_gbps"] = metric{float64(8*part.Count()) / strided / 1e9, "GB/s"}
		return nil
	})
}

// probeRedist bounces the 1024² grid between (:,BLOCK) and (BLOCK,:) with
// a warm schedule cache, as (time, peak wire memory) after Rink et al.
func probeRedist(mm map[string]metric) error {
	const iters = 4
	m := machine.New(nProcs)
	defer m.Close()
	dom, cols, rows := adiDists(m, probeEdge)
	var a *darray.Array
	sec, err := spmd1(m, iters, func(ctx *machine.Ctx) (func(int) error, error) {
		arr := darray.New(ctx, "redist", dom, cols)
		arr.FillFunc(ctx, adiInitial)
		if ctx.Rank() == 0 {
			a = arr
		}
		to := [2]*dist.Distribution{rows, cols}
		return func(i int) error { return arr.RedistributeTo(ctx, to[i%2]) }, nil
	})
	if err != nil {
		return err
	}
	calls := float64((probeBatches + 1) * iters)
	bytes := float64(m.Stats().Snapshot().TotalBytes()) / calls
	hits, misses := a.ScheduleCacheStats()
	mm["darray.redist.cols_rows_ms"] = metric{sec * 1e3, "ms"}
	mm["darray.redist.gbps"] = metric{bytes / sec / 1e9, "GB/s"}
	mm["darray.redist.peak_wire_mb"] = metric{float64(m.Stats().PeakWireBytes()) / 1e6, "MB"}
	mm["darray.redist.cache_hit_ratio"] = metric{float64(hits) / float64(hits+misses), "ratio"}
	return nil
}

// bblockSpec is the i-th of a sequence of B_BLOCK bounds of a 512-cell
// chain that never repeats pairwise, so no move between neighbours finds
// its schedule cached — PIC's situation at every rebalance.
func bblockSpec(i int) dist.Type {
	return dist.NewType(dist.BBlockDim(100+i%53, 230+i*7%59, 360+i*13%61, 512))
}

// bblockDists builds the first n distributions of that sequence on m.
func bblockDists(m *machine.Machine, n int) (index.Domain, []*dist.Distribution) {
	dom := index.Dim(512)
	tg := m.ProcsDim("$P", nProcs).Whole()
	ds := make([]*dist.Distribution, n)
	for i := range ds {
		ds[i] = dist.MustNew(bblockSpec(i), dom, tg)
	}
	return dom, ds
}

func probeBBlock(mm map[string]metric) error {
	const iters = 50
	const nDists = (probeBatches+1)*iters + 1

	// The bare move of one array.
	m := machine.New(nProcs)
	dom, ds := bblockDists(m, nDists)
	bare, err := spmd1(m, iters, func(ctx *machine.Ctx) (func(int) error, error) {
		a := darray.New(ctx, "bblock", dom, ds[0])
		return func(i int) error { return a.RedistributeTo(ctx, ds[i+1]) }, nil
	})
	m.Close()
	if err != nil {
		return err
	}
	mm["darray.redist.bblock_us"] = metric{bare * 1e6, "us"}

	// The same moves as DISTRIBUTE statements on a class {FIELD, COUNT},
	// next to the two bare moves that statement performs.
	var class [2]float64
	for k := range class {
		m := machine.New(nProcs)
		_, ds := bblockDists(m, nDists)
		e := core.NewEngine(m)
		class[k], err = spmd1(m, iters, func(ctx *machine.Ctx) (func(int) error, error) {
			init := core.DistSpec{Type: bblockSpec(0)}
			field, err := e.Declare(ctx, core.Decl{Name: "FIELD", Domain: dom, Dynamic: true, Init: &init})
			if err != nil {
				return nil, err
			}
			count, err := e.Declare(ctx, core.Decl{Name: "COUNT", Domain: dom, Dynamic: true, ConnectTo: "FIELD"})
			if err != nil {
				return nil, err
			}
			if k == 0 {
				return func(i int) error {
					return e.Distribute(ctx, []*core.Array{field}, core.ExprOf(core.DistSpec{Type: bblockSpec(i + 1)}))
				}, nil
			}
			return func(i int) error {
				if err := field.DArray().RedistributeTo(ctx, ds[i+1]); err != nil {
					return err
				}
				return count.DArray().RedistributeTo(ctx, ds[i+1])
			}, nil
		})
		m.Close()
		if err != nil {
			return err
		}
	}
	mm["core.distribute_overhead_us"] = metric{(class[0] - class[1]) * 1e6, "us"}

	// Planning and descriptor construction, cold every time.
	m = machine.New(nProcs)
	defer m.Close()
	_, ds = bblockDists(m, nDists)
	_, cols, rows := adiDists(m, probeEdge)
	plan := timeBatches(func() {
		_, err = redist.PlanMove(cols, rows, nProcs, redist.PlanOptions{})
	})
	if err != nil {
		return err
	}
	mm["redist.plan_us"] = metric{plan * 1e6, "us"}
	n := 0
	planBB := timeBatches(func() {
		for i := 0; i < 20 && err == nil; i, n = i+1, n+1 {
			_, err = redist.PlanMove(ds[n], ds[n+1], nProcs, redist.PlanOptions{})
		}
	})
	if err != nil {
		return err
	}
	mm["redist.plan_bblock_us"] = metric{planBB / 20 * 1e6, "us"}
	tg := m.ProcsDim("$P", nProcs).Whole()
	n = 0
	newBB := timeBatches(func() {
		for i := 0; i < 50 && err == nil; i, n = i+1, n+1 {
			_, err = dist.New(bblockSpec(n), dom, tg)
		}
	})
	mm["dist.new_bblock_us"] = metric{newBB / 50 * 1e6, "us"}
	return err
}

// probeSetup times what a program run does before and after its step
// loop: declare, fill, reduce.
func probeSetup(mm map[string]metric) error {
	m := machine.New(nProcs)
	defer m.Close()
	dom := index.Dim(probeEdge, probeEdge)
	cols := core.DistSpec{Type: dist.NewType(dist.ElidedDim(), dist.BlockDim())}
	out, err := spmd(m, func(ctx *machine.Ctx) ([]probeOp, error) {
		var v *core.Array
		return []probeOp{
			{1, func(int) (err error) {
				e := ctx.CollectiveOnce(func() any { return core.NewEngine(m) }).(*core.Engine)
				v, err = e.Declare(ctx, core.Decl{Name: "V", Domain: dom, Dynamic: true, Init: &cols})
				return err
			}},
			{1, func(int) error { v.FillFunc(ctx, adiInitial); return nil }},
			{1, func(int) error { _, err := v.DArray().ReduceSum(ctx); return err }},
		}, nil
	})
	if err != nil {
		return err
	}
	mm["core.declare_us"] = metric{out[0] * 1e6, "us"}
	mm["darray.fill_ns_per_elem"] = metric{out[1] / float64(dom.Size()) * 1e9, "ns"}
	mm["darray.reduce_sum_us"] = metric{out[2] * 1e6, "us"}
	return nil
}

// probeCkpt saves and restores the 768² grid of adi_ckpt_tcp on its
// machine (TCP loopback, CRC32C, parity stripes on the default servers).
func probeCkpt(mm map[string]metric, dir string) error {
	const edge = 768
	m, err := newMachine(true)
	if err != nil {
		return err
	}
	defer m.Close()
	ck := filepath.Join(dir, "probe-ckpt")
	e := core.NewEngine(m)
	e.SetCkptOptions(ckpt.Options{Keep: 1})
	cols := core.DistSpec{Type: dist.NewType(dist.ElidedDim(), dist.BlockDim())}
	out, err := spmd(m, func(ctx *machine.Ctx) ([]probeOp, error) {
		v, err := e.Declare(ctx, core.Decl{Name: "V", Domain: index.Dim(edge, edge), Dynamic: true, Init: &cols})
		if err != nil {
			return nil, err
		}
		v.FillFunc(ctx, adiInitial)
		return []probeOp{
			{1, func(i int) error { _, err := e.CheckpointIter(ctx, ck, i); return err }},
			{1, func(int) error { _, err := e.Restore(ctx, ck); return err }},
		}, nil
	})
	if err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	// Keep: 1 leaves exactly the last epoch on disk.
	var disk int64
	err = filepath.WalkDir(ck, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			disk += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	const mb = edge * edge * 8 / 1e6
	mm["ckpt.save_ms"] = metric{out[0] * 1e3, "ms"}
	mm["ckpt.save_mbps"] = metric{mb / out[0], "MB/s"}
	mm["ckpt.restore_ms"] = metric{out[1] * 1e3, "ms"}
	mm["ckpt.restore_mbps"] = metric{mb / out[1], "MB/s"}
	mm["ckpt.disk_bytes"] = metric{float64(disk), "bytes"}
	return nil
}
