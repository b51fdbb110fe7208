package apps

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/kernels"
	"repro/internal/machine"
)

// SmoothMode selects the grid distribution of the §4 smoothing study.
type SmoothMode int

// Smoothing distributions.
const (
	// SmoothColumns distributes the N×N grid (:,BLOCK): 2 messages of
	// size N per processor per step.
	SmoothColumns SmoothMode = iota
	// SmoothBlock2D distributes (BLOCK,BLOCK) on a q×q processor array
	// (P must be a square): 4 messages of size N/q per processor per
	// step (2 at q = 2, where every processor is a corner).
	SmoothBlock2D
)

func (m SmoothMode) String() string {
	if m == SmoothColumns {
		return "(:,BLOCK)"
	}
	return "(BLOCK,BLOCK)"
}

// SmoothConfig parameterizes a smoothing run.
type SmoothConfig struct {
	N     int
	Steps int
	P     int
	Mode  SmoothMode
	// Overlap runs each step with the ghost exchange in flight during the
	// interior update (the StartExchangeAllGhosts/Wait split) instead of a
	// synchronous exchange followed by the full sweep.  The step loop then
	// runs without per-step barriers — neighbour completion is the only
	// synchronization — so per-step traffic is reported as the phase total
	// divided by Steps.  Results are bit-identical to the synchronous mode.
	Overlap bool
	// Alpha/Beta attach a cost model; FlopTime is the modeled time of one
	// flop (default 2ns), charged four times per grid-point update.
	Alpha, Beta float64
	FlopTime    float64
	// Validate compares the final grid against the serial reference.
	Validate bool
	Runtime
}

// SmoothResult reports a smoothing run.
type SmoothResult struct {
	Outcome
	Mode SmoothMode
	// MsgsPerProcStep and BytesPerProcStep are the *maximum* per-processor
	// per-step data traffic (interior processors; the quantities of the
	// paper's analysis).
	MsgsPerProcStep  float64
	BytesPerProcStep float64
	MaxErr           float64
	Checksum         float64
}

// RunSmoothing performs Steps Jacobi smoothing steps on an N×N grid under
// the chosen distribution, counting ghost-exchange traffic.
func RunSmoothing(cfg SmoothConfig) (SmoothResult, error) {
	if cfg.FlopTime == 0 {
		cfg.FlopTime = 2e-9
	}
	res := SmoothResult{Mode: cfg.Mode}
	q := int(math.Round(math.Sqrt(float64(cfg.P))))
	if cfg.Mode == SmoothBlock2D && q*q != cfg.P {
		return res, fmt.Errorf("apps: 2-D smoothing needs a square processor count, got %d", cfg.P)
	}
	if cfg.N < cfg.P+cfg.Join {
		return res, fmt.Errorf("apps: smoothing needs N >= P+Join")
	}
	// A joiner cannot extend the square processor grid of SmoothBlock2D.
	if cfg.Elastic && cfg.Mode != SmoothColumns {
		return res, fmt.Errorf("apps: Elastic smoothing requires SmoothColumns")
	}
	sc := cfg.Straggler
	if sc.mitigating() {
		if sc.Policy != "drain" {
			return res, fmt.Errorf("apps: smoothing straggler policy must be drain or off (the ghost connect class keeps the even block split)")
		}
		if cfg.Mode != SmoothColumns || cfg.Overlap {
			return res, fmt.Errorf("apps: smoothing straggler drain requires SmoothColumns and synchronous steps")
		}
	}

	dom := index.Dim(cfg.N, cfg.N)
	initial := func(p index.Point) float64 {
		return float64((p[0]*13+p[1]*7)%11) * 0.25
	}
	var ref []float64
	if cfg.Validate {
		ref = make([]float64, dom.Size())
		dom.WholeSection().ForEach(func(p index.Point) bool {
			ref[dom.Offset(p)] = initial(p)
			return true
		})
		next := make([]float64, dom.Size())
		for s := 0; s < cfg.Steps; s++ {
			kernels.Smooth5(next, ref, cfg.N, cfg.N)
			ref, next = next, ref
		}
	}

	exch := make(tally, cfg.P+cfg.Join)
	err := run(runConfig{cfg.P, cfg.Steps, cfg.Alpha, cfg.Beta, cfg.Runtime}, &res.Outcome, func(ctx *machine.Ctx) app {
		// U and V are one connect class and the two buffers of the sweep:
		// step s reads src and writes dst, which then swap.
		var u, v, src, dst *core.Array
		exchange := func() error { return src.ExchangeAllGhosts(ctx) }
		sweep := func() { smoothLocal(ctx, src, dst, cfg.FlopTime) }
		overlap := func() error { return smoothStepOverlap(ctx, src, dst, cfg.FlopTime) }
		return app{
			declare: func(eng *core.Engine) (err error) {
				spec := core.DistSpec{Type: dist.NewType(dist.ElidedDim(), dist.BlockDim())}
				if cfg.Mode == SmoothBlock2D {
					g := ctx.Machine().ProcsDim("G", q, q)
					spec = core.DistSpec{Type: dist.NewType(dist.BlockDim(), dist.BlockDim()), Target: g.Whole()}
				}
				u, err = eng.Declare(ctx, core.Decl{Name: "U", Domain: dom, Dynamic: true, Init: &spec, Ghost: []int{1, 1}})
				if err != nil {
					return err
				}
				v, err = eng.Declare(ctx, core.Decl{Name: "V", Domain: dom, Dynamic: true, ConnectTo: "U", Ghost: []int{1, 1}})
				return err
			},
			fill: func() { u.FillFunc(ctx, initial) },
			// A checkpoint holds both buffers, and the step it was taken
			// after gives the parity, so the double-buffer swap resumes
			// exactly where the lost run stopped.
			begin: func(s0 int) error {
				src, dst = u, v
				if s0%2 == 1 {
					src, dst = v, u
				}
				ctx.PhaseBegin("smooth")
				return nil
			},
			step: func(int) error {
				if cfg.Overlap {
					if err := exch.count(ctx, overlap); err != nil {
						return err
					}
				} else {
					if err := exch.count(ctx, exchange); err != nil {
						return err
					}
					el := sc.timed(ctx, sweep)
					if sc.Enabled() {
						ctx.ReportWork(localElems(ctx, src), el)
					}
					// The next exchange writes src's ghosts, which a slower
					// neighbour's sweep may still be reading.
					if err := ctx.Barrier(); err != nil {
						return err
					}
				}
				src, dst = dst, src
				return nil
			},
			end: func() error {
				ctx.PhaseEnd("smooth")
				sum, maxErr, err := checksum(ctx, src, ref)
				if ctx.Rank() == 0 {
					res.Checksum, res.MaxErr = sum, maxErr
				}
				return err
			},
		}
	})
	if cfg.Steps > 0 {
		msgs, bytes := exch.most()
		res.MsgsPerProcStep = float64(msgs) / float64(cfg.Steps)
		res.BytesPerProcStep = float64(bytes) / float64(cfg.Steps)
	}
	return res, err
}

// smoothLocal computes dst = smooth(src) on the locally owned points,
// reading neighbours from src's ghost cells; global boundary points copy
// through.  Both arrays must share the distribution and ghost widths
// (they are one connect class), so their storage layouts coincide and the
// stencil runs on raw offsets.  Rows are processed as contiguous spans:
// boundary rows copy through with copy(), interior rows run
// kernels.SmoothRow over the interior span with the (at most two) global
// edge columns peeled off — the same run-based movement the pack/unpack
// layer uses, instead of a per-point branch in the inner loop.
func smoothLocal(ctx *machine.Ctx, src, dst *core.Array, flopTime float64) {
	ls, ld := src.Local(ctx), dst.Local(ctx)
	dom := src.Domain()
	n0, n1 := dom.Hi[0], dom.Hi[1]
	lo, hi, ok := ls.Segment()
	if !ok || ls.Count() == 0 {
		return
	}
	strd := ls.Stride()
	if strd[0] != 1 {
		panic("apps: smoothing needs unit stride along dimension 0")
	}
	cnt := smoothRect(ld.Data(), ls.Data(), ls.Offset(index.Point{lo[0], lo[1]}), strd[1],
		lo[0], hi[0], lo[1], hi[1], n0, n1)
	ctx.Charge(flopTime * float64(4*cnt))
}

// smoothRect applies one smoothing step to the global sub-rectangle
// [i0..i1]×[j0..j1] (rows j, unit-stride columns i, rowOff the storage
// offset of (i0, j0)), copying through points on the global boundary.
// It returns the number of stencil updates performed.
func smoothRect(dd, sd []float64, rowOff, s1, i0, i1, j0, j1, n0, n1 int) int {
	w := i1 - i0 + 1
	cnt := 0
	for j := j0; j <= j1; j, rowOff = j+1, rowOff+s1 {
		if j == 1 || j == n1 {
			copy(dd[rowOff:rowOff+w], sd[rowOff:rowOff+w])
			continue
		}
		off, a, b := rowOff, i0, i1
		if a == 1 { // global west edge copies through
			dd[off] = sd[off]
			a++
			off++
		}
		if b == n0 { // global east edge copies through
			dd[rowOff+w-1] = sd[rowOff+w-1]
			b--
		}
		if n := b - a + 1; n > 0 {
			kernels.SmoothRow(dd, sd, off, n, s1)
			cnt += n
		}
	}
	return cnt
}

// smoothStepOverlap performs one smoothing step with the ghost exchange
// in flight during the bulk of the computation: the owned region is
// split into an interior whose stencil reads no ghost cell and up to
// four one-point-wide edge strips that do; the interior runs between
// StartExchangeAllGhosts and Wait, the strips after.  Every point goes
// through the same smoothRect arithmetic as the synchronous path, so the
// result is bit-identical.
//
// The split is race-free without barriers: inbound puts land only in
// src's ghost cells, which the interior never reads, and the counted
// put/await streams bound neighbour skew to one step — a neighbour's
// next-step put targets the other buffer of the src/dst pair, whose
// ghost cells nothing is reading.
func smoothStepOverlap(ctx *machine.Ctx, src, dst *core.Array, flopTime float64) error {
	h, err := src.StartExchangeAllGhosts(ctx)
	if err != nil {
		return err
	}
	ls, ld := src.Local(ctx), dst.Local(ctx)
	dom := src.Domain()
	n0, n1 := dom.Hi[0], dom.Hi[1]
	lo, hi, ok := ls.Segment()
	if !ok || ls.Count() == 0 {
		return h.Wait()
	}
	sd, dd := ls.Data(), ld.Data()
	strd := ls.Stride()
	if strd[0] != 1 {
		panic("apps: smoothing needs unit stride along dimension 0")
	}
	s1 := strd[1]
	off := func(i, j int) int { return ls.Offset(index.Point{i, j}) }
	lo0, hi0, lo1, hi1 := lo[0], hi[0], lo[1], hi[1]

	// Shrink each side that has a neighbour (and hence a ghost margin the
	// boundary stencils read) by one point to get the interior box.
	iILo, iIHi, jILo, jIHi := lo0, hi0, lo1, hi1
	if lo0 > 1 {
		iILo++
	}
	if hi0 < n0 {
		iIHi--
	}
	if lo1 > 1 {
		jILo++
	}
	if hi1 < n1 {
		jIHi--
	}

	cnt := 0
	if iILo <= iIHi && jILo <= jIHi {
		cnt += smoothRect(dd, sd, off(iILo, jILo), s1, iILo, iIHi, jILo, jIHi, n0, n1)
	}
	if err := h.Wait(); err != nil {
		return err
	}
	// South and north strips span the full owned width; west and east
	// strips cover the remaining middle rows.  Together with the interior
	// they partition the owned region (degenerate segments collapse the
	// empty strips).
	if jILo-1 >= lo1 {
		cnt += smoothRect(dd, sd, off(lo0, lo1), s1, lo0, hi0, lo1, jILo-1, n0, n1)
	}
	if jN0 := max(jIHi+1, jILo); jN0 <= hi1 {
		cnt += smoothRect(dd, sd, off(lo0, jN0), s1, lo0, hi0, jN0, hi1, n0, n1)
	}
	if jILo <= jIHi {
		if iILo-1 >= lo0 {
			cnt += smoothRect(dd, sd, off(lo0, jILo), s1, lo0, iILo-1, jILo, jIHi, n0, n1)
		}
		if iE0 := max(iIHi+1, iILo); iE0 <= hi0 {
			cnt += smoothRect(dd, sd, off(iE0, jILo), s1, iE0, hi0, jILo, jIHi, n0, n1)
		}
	}
	ctx.Charge(flopTime * float64(4*cnt))
	return nil
}

// SmoothModelCost returns the modeled per-step communication cost of the
// two distributions for an N×N grid on P processors under (alpha, beta) —
// the §4 formula: columns pay 2 messages of 8N bytes, 2-D blocks pay 4
// messages of 8N/q bytes.  Those counts are an interior processor's; a
// distributed dimension of extent e gives its busiest processor
// min(2, e-1) neighbours, so on a 2×2 arrangement (all corners) blocks
// pay 2 messages, not 4.  ChooseSmoothingDist picks the cheaper one.
func SmoothModelCost(n, p int, alpha, beta float64) (columns, block2d float64) {
	q := int(math.Round(math.Sqrt(float64(p))))
	columns = float64(min(2, p-1)) * (alpha + beta*8*float64(n))
	block2d = float64(2*min(2, q-1)) * (alpha + beta*8*float64(n)/float64(q))
	return columns, block2d
}

// ChooseSmoothingDist implements the §4 runtime decision: given the grid
// size (an input parameter) and the executing machine ($NP, alpha, beta),
// select the distribution with the lower modeled step cost.
func ChooseSmoothingDist(n, p int, alpha, beta float64) SmoothMode {
	q := int(math.Round(math.Sqrt(float64(p))))
	if q*q != p {
		return SmoothColumns // no square arrangement available
	}
	c, b := SmoothModelCost(n, p, alpha, beta)
	if b < c {
		return SmoothBlock2D
	}
	return SmoothColumns
}
