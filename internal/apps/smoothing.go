package apps

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/core"
	"repro/internal/darray"
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
	// Overlap does nothing: every run overlaps the first step of each
	// block with its ghost exchange (smoothBlockStart).  It stays only
	// because bench/workloads.go sets it, and goes with the next change
	// to the benchmark.
	Overlap bool
	// Alpha/Beta attach a cost model; a grid-point update is charged
	// four flops.
	Alpha, Beta float64
	// Validate compares the final grid against the serial reference.
	Validate bool
	Runtime
}

// SmoothResult reports a smoothing run.
type SmoothResult struct {
	Outcome
	Mode SmoothMode
	// Depth is the halo depth k the run chose (SmoothDepth; on the last
	// membership epoch): ghosts were exchanged once every k steps.
	Depth int
	// MsgsPerProcStep and BytesPerProcStep are the *maximum* per-processor
	// per-step data traffic (interior processors; the quantities of the
	// paper's analysis).
	MsgsPerProcStep  float64
	BytesPerProcStep float64
	MaxErr           float64
	Checksum         float64
}

// testDepth, set by tests, forces the halo depth (still clamped to the
// thinnest segment); 0 leaves it to the model.
var testDepth int

// smoothInitial writes U's initial values into run, the elements p,
// p+stride, … of one dimension-0 run (the Local.ForEachRun callback).
func smoothInitial(p index.Point, stride int, run []float64) {
	k := p[0]*13 + p[1]*7
	for j := range min(11, len(run)) {
		run[j] = float64((k+13*stride*j)%11) * 0.25
	}
	for n := 11; n < len(run); n += copy(run[n:], run[:n]) { // the values repeat every 11
	}
}

// RunSmoothing performs Steps Jacobi smoothing steps on an N×N grid under
// the chosen distribution, counting ghost-exchange traffic.
//
// The halo is k deep, with k chosen by the §4 model (SmoothDepth): the
// ghosts are exchanged once at the start of every block of k steps, and
// step j of a block updates the owned box widened by k−1−j on every side
// that has a neighbour, recomputing the ring its neighbours own instead
// of receiving it — with the same arithmetic, so the grid stays bit for
// bit the serial one.  Without a cost model k is 1: one exchange a step.
func RunSmoothing(cfg SmoothConfig) (SmoothResult, error) {
	res := SmoothResult{Mode: cfg.Mode}
	q := int(math.Round(math.Sqrt(float64(cfg.P))))
	if cfg.Mode == SmoothBlock2D && q*q != cfg.P {
		return res, fmt.Errorf("apps: 2-D smoothing needs a square processor count, got %d", cfg.P)
	}
	if cfg.N < cfg.P+cfg.Join {
		return res, fmt.Errorf("apps: smoothing needs N >= P+Join")
	}
	// A joiner cannot extend the square processor grid of SmoothBlock2D.
	if cfg.Join > 0 && cfg.Mode != SmoothColumns {
		return res, fmt.Errorf("apps: smoothing with Join requires SmoothColumns")
	}
	sc := cfg.Straggler
	if sc.mitigating() {
		if sc.Policy != "drain" {
			return res, fmt.Errorf("apps: smoothing straggler policy must be drain or off (the ghost connect class keeps the even block split)")
		}
		if cfg.Mode != SmoothColumns {
			return res, fmt.Errorf("apps: smoothing straggler drain requires SmoothColumns")
		}
	}

	dom := index.Dim(cfg.N, cfg.N)
	var ref []float64
	if cfg.Validate {
		ref = serialGrid(dom, smoothInitial)
		next := make([]float64, dom.Size())
		for s := 0; s < cfg.Steps; s++ {
			kernels.Smooth5(next, ref, cfg.N, cfg.N)
			ref, next = next, ref
		}
	}

	// The dimensions a step exchanges, in the order their faces go.
	exDims := []int{1}
	if cfg.Mode == SmoothBlock2D {
		exDims = []int{0, 1}
	}
	exch := make(tally, cfg.P+cfg.Join)
	err := run(runConfig{cfg.P, cfg.Steps, cfg.Alpha, cfg.Beta, cfg.Runtime}, &res.Outcome, func(ctx *machine.Ctx) app {
		// U and V are one connect class and the two buffers of the sweep:
		// step s reads src and writes dst, which then swap.  k is the
		// epoch's halo depth and s0 the step its first block starts at.
		var u, v, src, dst *core.Array
		var k, s0 int
		return app{
			declare: func(eng *core.Engine) (err error) {
				spec := core.DistSpec{Type: dist.NewType(dist.ElidedDim(), dist.BlockDim())}
				p := ctx.NP()
				if cfg.Mode == SmoothBlock2D {
					g := ctx.Machine().ProcsDim("G", q, q)
					spec = core.DistSpec{Type: dist.NewType(dist.BlockDim(), dist.BlockDim()), Target: g.Whole()}
					p = q * q
				}
				k = SmoothDepth(cfg.Mode, cfg.N, p, cfg.Alpha, cfg.Beta)
				if ctx.Rank() == 0 {
					res.Depth = k
				}
				ghost := []int{k, k}
				u, err = eng.Declare(ctx, core.Decl{Name: "U", Domain: dom, Dynamic: true, Init: &spec, Ghost: ghost})
				if err != nil {
					return err
				}
				v, err = eng.Declare(ctx, core.Decl{Name: "V", Domain: dom, Dynamic: true, ConnectTo: "U", Ghost: ghost})
				return err
			},
			fill: func() error { u.Local(ctx).ForEachRun(smoothInitial); return nil },
			// A checkpoint holds both buffers, and the step it was taken
			// after gives the parity, so the double-buffer swap resumes
			// exactly where the lost run stopped; the first block starts
			// there too, with an exchange.
			begin: func(first int, _ map[string]string) error {
				src, dst, s0 = u, v, first
				if first%2 == 1 {
					src, dst = v, u
				}
				ctx.PhaseBegin("smooth")
				return nil
			},
			step: func(s int) error {
				// Step j of a block of kb <= k steps updates the owned box
				// widened by kb-1-j; the last block may be short.
				j := (s - s0) % k
				w := min(k, cfg.Steps-(s-j)) - 1 - j
				sw := stopwatch{ctx: ctx, sc: sc}
				if j == 0 {
					if err := exch.count(ctx, func() error { return smoothBlockStart(ctx, src, dst, exDims, w, &sw) }); err != nil {
						return err
					}
				} else {
					smoothLocal(ctx, src, dst, w, &sw)
					// A step inside a block waits for nothing.  Yield, so
					// that ranks sharing a core advance a step at a time:
					// one that ran its whole block first would leave its
					// neighbours' cores idle at the next exchange and at
					// the end of the run.
					runtime.Gosched()
				}
				sw.done(localElems(ctx, src))
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

// smoothBox is the global box [i0..i1]×[j0..j1] of the grid — i along
// the unit-stride dimension 0, j along dimension 1; ok is false for a
// rank that owns nothing.
type smoothBox struct {
	i0, i1, j0, j1 int
	ok             bool
}

// boxOf is l's owned segment widened by w (shrunk, for w < 0) on every
// side that has a neighbour; a side on the global boundary has none.
// Step j of a depth-k block updates boxOf(l, dom, k-1-j).
func boxOf(l *darray.Local, dom index.Domain, w int) smoothBox {
	lo, hi, ok := l.Segment()
	if !ok || l.Count() == 0 {
		return smoothBox{}
	}
	b := smoothBox{lo[0], hi[0], lo[1], hi[1], true}
	if b.i0 > 1 {
		b.i0 -= w
	}
	if b.i1 < dom.Hi[0] {
		b.i1 += w
	}
	if b.j0 > 1 {
		b.j0 -= w
	}
	if b.j1 < dom.Hi[1] {
		b.j1 += w
	}
	return b
}

// smoothLocal computes dst = smooth(src) over the owned points widened by
// w on every side with a neighbour, reading src's ghost cells up to w+1
// deep; global boundary points copy through.  Both arrays must share the
// distribution and ghost widths (they are one connect class), so their
// storage layouts coincide and the stencil runs on raw offsets.  Rows are
// processed as contiguous spans: boundary rows copy through with copy(),
// interior rows run kernels.SmoothRow over the interior span with the (at
// most two) global edge columns peeled off — the same run-based movement
// the pack/unpack layer uses, instead of a per-point branch in the inner
// loop.
func smoothLocal(ctx *machine.Ctx, src, dst *core.Array, w int, sw *stopwatch) {
	ls, ld := src.Local(ctx), dst.Local(ctx)
	b := boxOf(ls, src.Domain(), w)
	if !b.ok {
		return
	}
	sw.start()
	cnt := smoothPart(ls, ld, src.Domain(), b.i0, b.i1, b.j0, b.j1)
	sw.stop()
	ctx.Charge(flopTime * float64(4*cnt))
}

// smoothPart runs smoothRect over the global box [i0..i1]×[j0..j1] of the
// storage ls and ld share; an empty box does nothing.
func smoothPart(ls, ld *darray.Local, dom index.Domain, i0, i1, j0, j1 int) int {
	if i0 > i1 || j0 > j1 {
		return 0
	}
	strd := ls.Stride()
	if strd[0] != 1 {
		panic("apps: smoothing needs unit stride along dimension 0")
	}
	return smoothRect(ld.Data(), ls.Data(), ls.Offset(index.Point{i0, j0}), strd[1], i0, i1, j0, j1, dom.Hi[0], dom.Hi[1])
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

// smoothBlockStart performs the first step of a block, updating the box
// widened by w, with the block's ghost exchange in flight during the bulk
// of the computation.  The interior — the owned segment shrunk by one on
// every side with a neighbour — reads no ghost cell; it is cut into one
// band of rows per exchanged dimension.  Each dimension in turn is
// started, its band computed and its faces applied, so a wide face
// leaves only after the margins of the dimensions before it have landed
// (the corners it forwards); the rest of the box — edge strips and the
// ring the neighbours own — follows the last wait.  Every point goes
// through smoothRect's arithmetic, so the result is bit-identical to a
// sweep after the whole exchange.  Compute is charged as it is done, so
// the model sees each arrival hidden under the band before its wait, and
// sw times the bands and the strips, never a wait.
//
// The split is race-free without barriers: faces are applied only by
// this rank's own waits, into src's margins, which the interior never
// reads; the ring of dst this rank writes is its own storage too.
func smoothBlockStart(ctx *machine.Ctx, src, dst *core.Array, dims []int, w int, sw *stopwatch) error {
	ls, ld := src.Local(ctx), dst.Local(ctx)
	dom := src.Domain()
	in, b := boxOf(ls, dom, -1), boxOf(ls, dom, w)
	charge := func(cnt int) { ctx.Charge(flopTime * float64(4*cnt)) }
	for n, d := range dims {
		h, err := src.StartExchangeGhosts(ctx, d)
		if err != nil {
			return err
		}
		if in.ok {
			rows := in.j1 - in.j0 + 1
			j0, j1 := in.j0+n*rows/len(dims), in.j0+(n+1)*rows/len(dims)-1
			sw.start()
			cnt := smoothPart(ls, ld, dom, in.i0, in.i1, j0, j1)
			sw.stop()
			charge(cnt)
		}
		if err := h.Wait(); err != nil {
			return err
		}
	}
	if !b.ok {
		return nil
	}
	// South and north strips span the box's full width; west and east
	// strips cover the remaining middle rows.  Together with the interior
	// they partition the box (degenerate segments collapse the empty
	// strips).
	sw.start()
	cnt := smoothPart(ls, ld, dom, b.i0, b.i1, b.j0, in.j0-1)
	cnt += smoothPart(ls, ld, dom, b.i0, b.i1, max(in.j1+1, in.j0), b.j1)
	cnt += smoothPart(ls, ld, dom, b.i0, in.i0-1, in.j0, in.j1)
	cnt += smoothPart(ls, ld, dom, max(in.i1+1, in.i0), b.i1, in.j0, in.j1)
	sw.stop()
	charge(cnt)
	return nil
}

// SmoothModelCost returns the modeled per-step cost of the two
// distributions for an N×N grid on P processors with a depth-k halo,
// under (alpha, beta) and flopTime — the §4 formula, extended by the
// depth.  At k = 1 it is the paper's: columns pay 2 messages of 8N
// bytes, 2-D blocks pay 4 messages of 8N/q bytes.  Those counts are an
// interior processor's; a distributed dimension of extent e gives its
// busiest processor min(2, e-1) neighbours, so on a 2×2 arrangement (all
// corners) blocks pay 2 messages, not 4.  ChooseSmoothingDist picks the
// cheaper distribution at k = 1; SmoothDepth the k for one.
func SmoothModelCost(n, p, k int, alpha, beta float64) (columns, block2d float64) {
	return smoothStepCost(SmoothColumns, n, p, k, alpha, beta),
		smoothStepCost(SmoothBlock2D, n, p, k, alpha, beta)
}

// smoothStepCost is the modeled cost per step of a block of k steps on
// the busiest processor under mode, which owns ext[0]×ext[1] points with
// nb[d] neighbours along dimension d: the block's one exchange — a face
// of k layers per neighbour, dimension 1's spanning dimension 0's margins
// once k > 1 (the corners it forwards) — and the ring of the neighbours'
// points step j recomputes, k-1-j deep on every side with a neighbour, at
// the 4 flops of an update each.
func smoothStepCost(mode SmoothMode, n, p, k int, alpha, beta float64) float64 {
	ext, nb := [2]float64{float64(n), float64(n) / float64(p)}, [2]int{0, min(2, p-1)}
	if mode == SmoothBlock2D {
		q := int(math.Round(math.Sqrt(float64(p))))
		e := float64(n) / float64(q)
		ext, nb = [2]float64{e, e}, [2]int{min(2, q-1), min(2, q-1)}
	}
	kf := float64(k)
	face1 := ext[0]
	if k > 1 {
		face1 += float64(nb[0]) * kf
	}
	comm := float64(nb[0])*(alpha+beta*8*kf*ext[1]) + float64(nb[1])*(alpha+beta*8*kf*face1)
	ring := 0.0
	for w := 1.0; w < kf; w++ {
		ring += (ext[0]+float64(nb[0])*w)*(ext[1]+float64(nb[1])*w) - ext[0]*ext[1]
	}
	return (comm + 4*flopTime*ring) / kf
}

// SmoothDepth is the §4 runtime decision of the halo depth: the k with
// the lowest modeled step cost for the distribution (SmoothModelCost),
// no deeper than the thinnest segment — a ghost ring is filled by the
// face neighbours alone — and 1 when no machine model is given (alpha =
// beta = 0).  The cost falls with k while the saved start-ups outweigh
// the recomputed ring and rises after, so the search stops at the first
// rise.
func SmoothDepth(mode SmoothMode, n, p int, alpha, beta float64) int {
	e := p // processors along a distributed dimension
	if mode == SmoothBlock2D {
		e = int(math.Round(math.Sqrt(float64(p))))
	}
	bs := (n + e - 1) / e
	thin := n - (n-1)/bs*bs // BLOCK's last, thinnest non-empty segment
	if testDepth > 0 {
		return max(1, min(testDepth, thin))
	}
	if alpha == 0 && beta == 0 {
		return 1
	}
	best, bestCost := 1, smoothStepCost(mode, n, p, 1, alpha, beta)
	for k := 2; k <= thin; k++ {
		c := smoothStepCost(mode, n, p, k, alpha, beta)
		if c >= bestCost {
			break
		}
		best, bestCost = k, c
	}
	return best
}

// ChooseSmoothingDist implements the §4 runtime decision: given the grid
// size (an input parameter) and the executing machine ($NP, alpha, beta),
// select the distribution with the lower modeled step cost.
func ChooseSmoothingDist(n, p int, alpha, beta float64) SmoothMode {
	q := int(math.Round(math.Sqrt(float64(p))))
	if q*q != p {
		return SmoothColumns // no square arrangement available
	}
	c, b := SmoothModelCost(n, p, 1, alpha, beta)
	if b < c {
		return SmoothBlock2D
	}
	return SmoothColumns
}
