// Package apps contains the paper's application studies (§4) as
// parameterized, metric-reporting harnesses shared by the examples, the
// benchmark spine (bench/), the root benchmarks, and cmd/vfbench's
// tables E1–E4:
//
//   - ADI (Figure 1, claim C2): dynamic redistribution between sweeps vs
//     a static distribution with a pipelined distributed tridiagonal
//     solve;
//   - PIC (Figure 2, claim C3): B_BLOCK load balancing vs static BLOCK;
//   - grid smoothing (claim C1): column vs 2-D block distribution and the
//     N/p crossover;
//   - redistribution microcosts (claim C4).
//
// The three applications run under one step loop (driver.go) that adds
// checkpoints, recovery, elastic join and straggler defense; this
// package's tests drive those paths.
package apps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/health"
	"repro/internal/index"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/msg"
)

// ADIMode selects the distribution strategy of the ADI run.
type ADIMode int

// ADI strategies.
const (
	// ADIDynamic is Figure 1: V is DYNAMIC, distributed (:,BLOCK) for the
	// x-sweep and redistributed to (BLOCK,:) for the y-sweep each
	// iteration.  All communication is confined to the two DISTRIBUTE
	// statements.
	ADIDynamic ADIMode = iota
	// ADIStaticCols keeps V statically distributed (:,BLOCK): the x-sweep
	// is local, the y-sweep runs a pipelined distributed Thomas solve —
	// the communication "the compiler must embed" per §4.
	ADIStaticCols
	// ADIStaticRows keeps V statically distributed (BLOCK,:): the y-sweep
	// is local, the x-sweep is pipelined.
	ADIStaticRows
)

func (m ADIMode) String() string {
	switch m {
	case ADIDynamic:
		return "dynamic"
	case ADIStaticCols:
		return "static(:,BLOCK)"
	case ADIStaticRows:
		return "static(BLOCK,:)"
	}
	return "?"
}

// ADIConfig parameterizes an ADI run.
type ADIConfig struct {
	NX, NY int
	Iters  int
	P      int
	Mode   ADIMode
	// ChunkRows batches pipeline messages in the static modes (default 8).
	ChunkRows int
	// Alpha/Beta attach a Hockney cost model when non-zero.
	Alpha, Beta float64
	// Validate compares the final grid against the serial reference.
	Validate bool
	Runtime
}

// ADIResult reports an ADI run.
type ADIResult struct {
	Outcome
	Mode        ADIMode
	SweepMsgs   int64 // messages during sweeps (static pipeline traffic)
	RedistMsgs  int64 // messages during DISTRIBUTE (dynamic traffic)
	RedistBytes int64
	MaxErr      float64 // vs serial reference (when validated)
	Checksum    float64
	CacheHits   int
	CacheMisses int
}

const (
	adiA, adiB, adiC = -1.0, 4.0, -1.0
)

// adiInitial writes V's initial values into run, the elements p,
// p+stride, … of one dimension-0 run (the Local.ForEachRun callback).
func adiInitial(p index.Point, stride int, run []float64) {
	k := p[0]*31 + p[1]*17
	for j := range min(13, len(run)) {
		run[j] = float64((k+31*stride*j)%13) - 6.0
	}
	for n := 13; n < len(run); n += copy(run[n:], run[:n]) { // the values repeat every 13
	}
}

func colsType() dist.Type { return dist.NewType(dist.ElidedDim(), dist.BlockDim()) }
func rowsType() dist.Type { return dist.NewType(dist.BlockDim(), dist.ElidedDim()) }

// RunADI executes the Figure 1 iteration under the chosen strategy and
// reports traffic, modeled and measured time, and (optionally) the
// deviation from the serial reference.
func RunADI(cfg ADIConfig) (ADIResult, error) {
	if cfg.ChunkRows <= 0 {
		cfg.ChunkRows = 8
	}
	res := ADIResult{Mode: cfg.Mode}
	if total := cfg.P + cfg.Join; cfg.NX < total || cfg.NY < total {
		return res, fmt.Errorf("apps: ADI needs NX,NY >= P+Join (%dx%d on %d)", cfg.NX, cfg.NY, total)
	}
	// Mitigation re-divides V's distribution, which only the dynamic mode
	// may change.
	sc := cfg.Straggler
	if sc.mitigating() && cfg.Mode != ADIDynamic {
		return res, fmt.Errorf("apps: straggler mitigation requires the dynamic ADI mode (static distributions cannot be re-divided)")
	}

	dom := index.Dim(cfg.NX, cfg.NY)
	var ref []float64 // serial reference
	if cfg.Validate {
		ref = serialGrid(dom, adiInitial)
		kernels.SerialADI(ref, cfg.NX, cfg.NY, cfg.Iters, adiA, adiB, adiC)
	}

	redists, sweeps := make(tally, cfg.P+cfg.Join), make(tally, cfg.P+cfg.Join)
	err := run(runConfig{cfg.P, cfg.Iters, cfg.Alpha, cfg.Beta, cfg.Runtime}, &res.Outcome, func(ctx *machine.Ctx) app {
		var eng *core.Engine
		var v *core.Array
		// axis[d] is what dimension d carries from step to step (one
		// variable, so the hooks capture one heap cell).
		var axis [2]struct {
			// bounds, once a straggler rebalance has installed it, replaces
			// the even BLOCK split of d in the remaining DISTRIBUTEs.
			bounds []int
			// expr is the DISTRIBUTE that makes the lines along d local: d
			// elided, the other dimension blocked (B_BLOCK by its bounds
			// once installed).  setExprs builds both at every declare and
			// rebalance; a statement keeps nothing of its Expr, so the steps
			// between allocate nothing for it.
			expr core.Expr
			// factor is the elimination the sweep along d shares across its
			// lines, built by the first sweep (a zero-step run builds none).
			factor lineFactor
		}
		setExprs := func() {
			for d := range 2 {
				dims := []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}
				if b := axis[1-d].bounds; b != nil {
					dims[1-d] = dist.BBlockDim(b...)
				}
				dims[d] = dist.ElidedDim()
				axis[d].expr = core.DimsOf(dims...)
			}
		}
		var distribute [2]func() error
		var sweep [2]func()
		for d := range 2 {
			distribute[d] = func() error { return eng.Distribute(ctx, []*core.Array{v}, axis[d].expr) }
			sweep[d] = func() { localSweep(ctx, v, d, &axis[d].factor) }
		}
		// A static mode keeps one dimension distributed for the whole run
		// and sweeps along it with the pipelined solve.
		pipeDim := -1
		switch cfg.Mode {
		case ADIStaticCols:
			pipeDim = 1
		case ADIStaticRows:
			pipeDim = 0
		}
		pipe := func() error { return pipelinedSweep(ctx, v, pipeDim, cfg.ChunkRows, &axis[pipeDim].factor) }
		return app{
			declare: func(e *core.Engine) (err error) {
				eng = e
				if b := axis[0].bounds; b != nil && len(b) != ctx.NP() {
					// A membership transition changed the view size since the
					// bounds were computed: fall back to the even block split.
					axis[0].bounds, axis[1].bounds = nil, nil
				}
				setExprs()
				decl := core.Decl{Name: "V", Domain: dom}
				switch cfg.Mode {
				case ADIDynamic:
					decl.Dynamic, decl.Init = true, &core.DistSpec{Type: colsType()}
				case ADIStaticCols:
					decl.Static = &core.DistSpec{Type: colsType()}
				case ADIStaticRows:
					decl.Static = &core.DistSpec{Type: rowsType()}
				}
				v, err = e.Declare(ctx, decl)
				return err
			},
			fill: func() error { v.Local(ctx).ForEachRun(adiInitial); return nil },
			begin: func(int, map[string]string) error {
				ctx.PhaseBegin("iterate")
				return nil
			},
			// The x-sweep, then the y-sweep.  Dynamic mode first makes the
			// sweep's lines local (V is declared so for the first one), which
			// confines all communication to the DISTRIBUTEs; a static mode
			// pipelines the sweep along its distributed dimension.  Local
			// sweeps run under the stopwatch: injected slowdown is applied
			// and the busy time — communication waits excluded — reported
			// to the health scorer.
			//
			// No barrier follows a sweep: it touches only the rank's own
			// block, and the next reader of that block is a peer pulling a
			// DISTRIBUTE transfer, which it does only once this rank's offer
			// token — sent after the sweep — has arrived.  The DISTRIBUTE
			// has no barrier either: the storage it retires is recycled only
			// after the next DISTRIBUTE has collected every puller's done
			// token.  The pipelined sweep is ordered by its own messages.
			step: func(it int) error {
				var units float64
				sw := stopwatch{ctx: ctx, sc: sc}
				for d := range 2 {
					if d == pipeDim {
						if err := sweeps.count(ctx, pipe); err != nil {
							return err
						}
						continue
					}
					if cfg.Mode == ADIDynamic && it+d > 0 {
						if err := redists.count(ctx, distribute[d]); err != nil {
							return err
						}
					}
					sw.start()
					sweep[d]()
					sw.stop()
					units += localElems(ctx, v)
				}
				sw.done(units)
				return nil
			},
			rebalance: func(speeds []float64) error {
				axis[0].bounds, axis[1].bounds = health.WeightedBounds(cfg.NX, speeds), health.WeightedBounds(cfg.NY, speeds)
				setExprs()
				return nil
			},
			end: func() error {
				ctx.PhaseEnd("iterate")
				sum, maxErr, err := checksum(ctx, v, ref)
				if ctx.Rank() == 0 {
					res.Checksum, res.MaxErr = sum, maxErr
					res.CacheHits, res.CacheMisses = v.DArray().ScheduleCacheStats()
				}
				return err
			},
		}
	})
	res.RedistMsgs, res.RedistBytes = redists.sum()
	res.SweepMsgs, _ = sweeps.sum()
	return res, err
}

// lineFactor caches the factored TRIDIAG system of n unknowns (n == 0:
// not built yet).
type lineFactor struct {
	n int
	f kernels.Factor
}

// localSweep solves the tridiagonal systems along dimension dim; every
// line must be fully local (dim elided in the current distribution, so
// its extent is the global one across every shrink, join and rebalance
// and lf is built once).
func localSweep(ctx *machine.Ctx, v *core.Array, dim int, lf *lineFactor) {
	l := v.Local(ctx)
	alloc := l.AllocShape()
	other := 1 - dim
	strd := l.Stride()
	n := alloc[dim]
	if n == 0 || alloc[other] == 0 {
		return
	}
	if lf.n != n {
		*lf = lineFactor{n, kernels.NewFactor(n, adiA, adiB, adiC)}
	}
	lf.f.Solve(l.Data(), 0, strd[dim], strd[other], alloc[other])
	ctx.Charge(flopTime * float64(5*n*alloc[other]))
}

// The tags of pipelinedSweep's frames: forward d' values downstream,
// back-substituted solutions upstream.
const fwdTag, bwdTag = 9001, 9002

// pipelinedSweep solves the tridiagonal systems along a BLOCK-distributed
// dimension dim: each processor eliminates its segment of every line
// (lf.f.Forward, lf built for the global extent) and forwards each
// line's last d' to the next processor in chunks of lines, then
// back-substitutes (lf.f.Back) in the reverse direction.  b' is the
// shared factor's, so a frame carries one value per line.  This is the
// communication pattern a compiler must generate for the static ADI
// (paper §4).  Transport failures and frames of the wrong size are
// returned as errors (under the machine's retry policy the pipeline
// receives run with deadlines).
func pipelinedSweep(ctx *machine.Ctx, v *core.Array, dim int, chunk int, lf *lineFactor) error {
	l := v.Local(ctx)
	rank, np := ctx.Rank(), ctx.NP()
	alloc := l.AllocShape()
	other := 1 - dim
	strd := l.Stride()
	segN := alloc[dim]    // my extent along the recurrence dimension
	lines := alloc[other] // number of independent systems (all local)
	dom := v.Domain()
	if n := dom.Extent(dim); lf.n != n {
		*lf = lineFactor{n, kernels.NewFactor(n, adiA, adiB, adiC)}
	}
	g0 := 0 // my segment's first row of the global line
	if segN > 0 {
		lo, _, _ := l.Segment()
		g0 = lo[dim] - dom.Lo[dim]
	}
	data := l.Data()
	ep := ctx.Endpoint()
	pol := ctx.Comm().Retry()
	tr := ctx.Tracer()
	carry := make([]float64, min(chunk, lines))
	// recv decodes from's frame for a chunk into c.
	recv := func(from, tag int, c []float64) error {
		p, err := msg.RecvRetry(ep, pol, tr, "pipelined-sweep", from, tag)
		if err != nil {
			return err
		}
		if len(p.Data) != 8*len(c) {
			return fmt.Errorf("frame from rank %d on tag %d has %d bytes, want %d (%d lines)", from, tag, len(p.Data), 8*len(c), len(c))
		}
		msg.DecodeFloat64sInto(c, p.Data)
		p.Release()
		return nil
	}
	inRange := func(r int) bool { return r >= 0 && r < np }

	// The forward elimination runs downstream, then the back substitution
	// upstream, each pipelined in chunks of lines.
	for _, pass := range [...]struct {
		name     string
		from, to int
		tag      int
		sweep    func(data []float64, start, stride, lineStride, lines, g0, seg int, carry []float64)
		flops    int
	}{
		{"forward", rank - 1, rank + 1, fwdTag, lf.f.Forward, 5},
		{"backward", rank + 1, rank - 1, bwdTag, lf.f.Back, 3},
	} {
		for c0 := 0; c0 < lines; c0 += chunk {
			k := min(chunk, lines-c0)
			c := carry[:k]
			var err error
			if inRange(pass.from) {
				err = recv(pass.from, pass.tag, c)
			}
			if err == nil {
				pass.sweep(data, c0*strd[other], strd[dim], strd[other], k, g0, segN, c)
				ctx.Charge(flopTime * float64(pass.flops*segN*k))
				if inRange(pass.to) {
					err = msg.SendRetry(ep, pol, tr, "pipelined-sweep", pass.to, pass.tag, msg.EncodeFloat64s(c))
				}
			}
			if err != nil {
				return fmt.Errorf("apps: ADI %s sweep at rank %d: %w", pass.name, rank, err)
			}
		}
	}
	return nil
}
