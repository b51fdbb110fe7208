package apps

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/health"
	"repro/internal/index"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/msg"
)

// PICConfig parameterizes the Figure 2 particle-in-cell study.  The
// domain is a 1-D chain of NCell cells; each cell holds a particle count.
// Every step, a fixed fraction of each cell's particles drifts toward
// higher-numbered cells (reflecting at the last cell), so a uniform
// initial loading develops a pile-up — exactly the "motion of particles
// during the simulation may lead to a severe load imbalance" scenario of
// §4.
type PICConfig struct {
	NCell int
	Steps int
	P     int
	// Rebalance enables the B_BLOCK(BOUNDS) rebalancing path of Figure 2;
	// otherwise the cells stay statically BLOCK distributed.
	Rebalance bool
	// RebalanceEvery is the Figure 2 "every 10th iteration" check period.
	RebalanceEvery int
	// RebalanceThreshold triggers rebalancing when max/avg particles per
	// processor exceeds it (the rebalance() predicate; default 1.1).
	RebalanceThreshold float64
	// DriftFrac is the fraction of a cell's particles moving one cell
	// rightward per step (default 0.2).
	DriftFrac float64
	// InitPerCell is the initial particle count per cell (default 64).
	InitPerCell int
	// WorkPerParticle is how many adds per particle a cell's chain takes
	// in update_field (kernels.ParticleWork, which runs eight cells'
	// chains in lockstep), making wall time reflect the load (default 40).
	WorkPerParticle int
	// Alpha/Beta attach a cost model; each particle-op is charged one
	// flop.
	Alpha, Beta float64
	// Runtime: a restore onto a different processor count (Recover, or a
	// replay after a join, drain or loss) degrades the saved
	// B_BLOCK(BOUNDS) to BLOCK until the next rebalance.
	Runtime
}

// PICResult reports a PIC run.
type PICResult struct {
	Outcome
	Rebalance       bool
	ImbalanceSeries []float64 // per-step max/avg particles per processor
	MeanImbalance   float64
	FinalImbalance  float64
	PeakImbalance   float64
	Redistributions int
	RedistBytes     int64
	ParticlesStart  float64
	ParticlesEnd    float64   // conservation check: must equal start
	Counts          []float64 // the final COUNT, gathered: particles per cell
	FieldChecksum   float64
}

// testFlushEvery, set by tests, reduces the imbalance on every step, as a
// run the driver may leave at any boundary does.
var testFlushEvery bool

// RunPIC executes the Figure 2 outer loop:
//
//	CALL initpos; CALL balance; DISTRIBUTE FIELD :: B_BLOCK(BOUNDS)
//	DO k = 1, MAX_TIME
//	  CALL update_field; CALL update_part
//	  IF (MOD(k,10) == 0 .AND. rebalance()) THEN
//	    CALL balance; DISTRIBUTE FIELD :: B_BLOCK(BOUNDS)
//	  ENDIF
//	ENDDO
//
// FIELD is the primary of a connect class {FIELD, COUNT}: COUNT (the
// per-cell particle counts) is declared CONNECT(=FIELD), so every
// DISTRIBUTE moves both — the class semantics of §2.3 doing real work.
func RunPIC(cfg PICConfig) (PICResult, error) {
	cfg = cfg.withDefaults()
	res := PICResult{Rebalance: cfg.Rebalance, ImbalanceSeries: make([]float64, cfg.Steps)}
	if cfg.NCell < cfg.P+cfg.Join {
		return res, fmt.Errorf("apps: PIC needs NCell >= P+Join")
	}

	dom := index.Dim(cfg.NCell)
	redists := make(tally, cfg.P+cfg.Join)
	err := run(runConfig{cfg.P, cfg.Steps, cfg.Alpha, cfg.Beta, cfg.Runtime}, &res.Outcome, func(ctx *machine.Ctx) app {
		var eng *core.Engine
		var field, count *core.Array
		// speedShares, once a straggler rebalance has installed the measured
		// speeds, weights every later balance's B_BLOCK bounds by throughput.
		var speedShares []float64
		var batch imbalances
		// A run the driver may leave at any iteration boundary (a join, a
		// straggler drain) flushes every step, and any run flushes before a
		// checkpoint, so a replay never needs a lost rank's pending sums.
		flushEvery := testFlushEvery || cfg.Join > 0 || cfg.Straggler.mitigating()
		dr := &drift{frac: cfg.DriftFrac}
		// bounds holds the BOUNDS each check broadcasts, decoded into the
		// same storage every time, and bblock the rebalancing DISTRIBUTE's
		// one specifier, B_BLOCK(BOUNDS): the statement copies what it
		// keeps, so a check allocates nothing for either.
		var bounds []int
		var bblock [1]dist.DimSpec
		// rebalance runs DISTRIBUTE FIELD :: B_BLOCK(BOUNDS) — moving COUNT
		// with it, in one message per peer pair.  No barrier follows, and
		// the DISTRIBUTE has none: a rank leaves it once its own new blocks
		// have landed, and the next step touches only those.  The drift
		// block ends with it: the next step's frame, addressed by the new
		// descriptor, waits in the receiver's mailbox until the receiver
		// has moved too.
		rebalance := func(bounds []int) error {
			dr.restart()
			bblock[0] = dist.DimSpec{Kind: dist.BBlock, Bounds: bounds}
			if err := redists.count(ctx, func() error {
				return eng.Distribute(ctx, []*core.Array{field}, core.DimsOf(bblock[:]...))
			}); err != nil {
				return err
			}
			if ctx.Rank() == 0 {
				res.Redistributions++
			}
			return nil
		}
		// balance is Figure 2's balance() outside a check: BOUNDS from
		// COUNT, then rebalance.
		balance := func() error {
			bounds, err := picBounds(ctx, count, speedShares)
			if err != nil {
				return err
			}
			return rebalance(bounds)
		}
		return app{
			declare: func(e *core.Engine) (err error) {
				eng = e
				if len(speedShares) != ctx.NP() {
					speedShares = nil // a transition changed the view size
				}
				blockInit := core.DistSpec{Type: dist.NewType(dist.BlockDim())}
				field, err = e.Declare(ctx, core.Decl{Name: "FIELD", Domain: dom, Dynamic: true, Init: &blockInit})
				if err != nil {
					return err
				}
				count, err = e.Declare(ctx, core.Decl{Name: "COUNT", Domain: dom, Dynamic: true, ConnectTo: "FIELD"})
				return err
			},
			fill: func() error { initPos(ctx, cfg, count, field); return nil },
			// The initial balance (Figure 2 does this before the time loop);
			// a recovered run keeps the restored distribution until the next
			// in-loop rebalance check.
			begin: func(int, map[string]string) error {
				batch.pending = batch.pending[:0] // a failed epoch's batch is recomputed
				dr.restart()
				if cfg.Rebalance && !cfg.Recover {
					if err := balance(); err != nil {
						return err
					}
				}
				startCounts, err := count.GatherTo(ctx, 0)
				if ctx.Rank() == 0 {
					res.ParticlesStart = sum(startCounts)
				}
				return err
			},
			step: func(it int) error {
				k := it + 1 // Figure 2 counts steps from 1
				if err := updateField(ctx, cfg, count, field); err != nil {
					return err
				}
				// update_part: DriftFrac of each cell's particles moves to
				// cell+1; the last cell reflects (keeps its particles).  The
				// only cross-processor flow is from my last cell to the
				// owner of the next cell.
				if err := dr.step(ctx, count, cfg.driftHorizon(it)); err != nil {
					return err
				}

				batch.add(ctx, count)
				check := k%cfg.RebalanceEvery == 0
				if !check && k < cfg.Steps && !cfg.savesAfter(k) && !flushEvery {
					return nil
				}
				// The series on view rank 0 gets the batch ending at step it.
				// A check that may rebalance brings COUNT along, so rank 0
				// decides and computes BOUNDS from the same gather, and one
				// broadcast carries them — empty for no rebalance.
				var cells *core.Array
				if cfg.Rebalance && check {
					cells = count
				}
				imbs, counts, err := batch.flush(ctx, cells)
				if err != nil {
					return err
				}
				var fresh []int
				if ctx.Rank() == 0 {
					copy(res.ImbalanceSeries[it+1-len(imbs):], imbs)
					if cells != nil && imbs[len(imbs)-1] > cfg.RebalanceThreshold {
						fresh = countBounds(counts, ctx.NP(), speedShares)
					}
				}
				if cells == nil {
					return nil
				}
				if bounds, err = ctx.Comm().BcastIntsInto(0, fresh, bounds); err != nil || len(bounds) == 0 {
					return err
				}
				return rebalance(bounds)
			},
			// A straggler rebalance re-divides the particles by measured
			// speed immediately, so the straggler gets fewer particles.
			rebalance: func(speeds []float64) error {
				speedShares = health.FairShares(speeds)
				return balance()
			},
			end: func() error {
				got, err := count.GatherTo(ctx, 0)
				if err != nil {
					return err
				}
				fields, err := field.GatherTo(ctx, 0)
				if ctx.Rank() == 0 {
					res.ParticlesEnd, res.Counts = sum(got), got
					res.FieldChecksum = sum(fields)
				}
				return err
			},
		}
	})
	_, res.RedistBytes = redists.sum()
	if err != nil {
		return res, err
	}
	for _, v := range res.ImbalanceSeries {
		res.MeanImbalance += v
		res.PeakImbalance = max(res.PeakImbalance, v)
	}
	if cfg.Steps > 0 {
		res.MeanImbalance /= float64(cfg.Steps)
		res.FinalImbalance = res.ImbalanceSeries[cfg.Steps-1]
	}
	return res, nil
}

// withDefaults fills the zero fields with their documented defaults.
func (cfg PICConfig) withDefaults() PICConfig {
	if cfg.RebalanceEvery <= 0 {
		cfg.RebalanceEvery = 10
	}
	if cfg.RebalanceThreshold == 0 {
		cfg.RebalanceThreshold = 1.1
	}
	if cfg.DriftFrac == 0 {
		cfg.DriftFrac = 0.2
	}
	if cfg.InitPerCell == 0 {
		cfg.InitPerCell = 64
	}
	if cfg.WorkPerParticle == 0 {
		cfg.WorkPerParticle = 40
	}
	return cfg
}

// initPos is Figure 2's initpos: uniform loading, no field yet.
func initPos(ctx *machine.Ctx, cfg PICConfig, count, field *core.Array) {
	count.FillFunc(ctx, func(index.Point) float64 { return float64(cfg.InitPerCell) })
	field.FillFunc(ctx, func(index.Point) float64 { return 0 })
}

// picBounds is the bounds half of Figure 2's balance(): COUNT gathered on
// view rank 0, B_BLOCK bounds computed there (countBounds) and broadcast
// to every rank.
func picBounds(ctx *machine.Ctx, count *core.Array, shares []float64) ([]int, error) {
	counts, err := count.GatherTo(ctx, 0)
	if err != nil {
		return nil, err
	}
	var bounds []int
	if ctx.Rank() == 0 {
		bounds = countBounds(counts, ctx.NP(), shares)
	}
	return ctx.Comm().BcastInts(0, bounds)
}

// countBounds is the B_BLOCK bounds of the whole COUNT equalizing
// particles per processor or, given shares, per unit of measured speed.
func countBounds(counts []float64, np int, shares []float64) []int {
	if shares != nil {
		return WeightedCountBounds(counts, shares)
	}
	return CountBounds(counts, np)
}

// CountBounds returns B_BLOCK bounds assigning contiguous cells to np
// processors so that each gets roughly total/np of the counts (particles
// per cell) — the balance() of the paper's Figure 2.  Bounds are 1-based
// inclusive upper bounds, non-decreasing, ending at len(counts).  It sets
// one bound per cell: a cell heavy enough to pass several targets closes
// one block, and the next blocks close at the following cells.  That is
// why it is not WeightedCountBounds with even shares, which closes a
// block at every target the cell passes.
func CountBounds(counts []float64, np int) []int {
	total := 0.0
	for _, c := range counts {
		total += c
	}
	per := total / float64(np)
	bounds := make([]int, np)
	acc := 0.0
	p := 0
	for i, c := range counts {
		acc += c
		if acc >= per*float64(p+1) && p < np-1 {
			bounds[p] = i + 1 // 1-based cell index
			p++
		}
	}
	return closeBounds(bounds, p, len(counts))
}

// WeightedCountBounds generalizes CountBounds to uneven targets: the
// cumulative count targets follow the given work shares (summing to 1,
// from health.FairShares) instead of an even total/np split, so a slow
// processor's segment carries proportionally fewer particles.
func WeightedCountBounds(counts, shares []float64) []int {
	np := len(shares)
	total := 0.0
	for _, c := range counts {
		total += c
	}
	targets := make([]float64, np)
	cum := 0.0
	for p := range shares {
		cum += shares[p]
		targets[p] = total * cum
	}
	bounds := make([]int, np)
	acc := 0.0
	p := 0
	for i, c := range counts {
		acc += c
		for p < np-1 && acc >= targets[p] {
			bounds[p] = i + 1 // 1-based cell index
			p++
		}
	}
	return closeBounds(bounds, p, len(counts))
}

// closeBounds gives the processors from p on the bound n, fills any gap
// so the bounds never decrease, and ends them at n.
func closeBounds(bounds []int, p, n int) []int {
	for ; p < len(bounds); p++ {
		bounds[p] = n
	}
	prev := 0
	for i := range bounds {
		if bounds[i] < prev {
			bounds[i] = prev
		}
		prev = bounds[i]
	}
	bounds[len(bounds)-1] = n
	return bounds
}

// imbalances batches Figure 2's rebalance() input: add appends a step's
// particle sum over this rank's cells, flush gathers every pending one on
// view rank 0.  buf is the flush's gather payload, kept so that a longer
// batch allocates nothing more.
type imbalances struct {
	pending []float64
	buf     []byte
}

func (b *imbalances) add(ctx *machine.Ctx, count *core.Array) {
	l := count.Local(ctx)
	local := 0.0
	for _, r := range l.Grid().Dims[0] {
		local += sum(runCells(l, r)) // whole numbers: exact in any order
	}
	b.pending = append(b.pending, local)
}

// flush gathers the pending batch (at least one step) on view rank 0 in
// one Comm.Gather and returns there each step's max/avg particles per
// processor; other ranks get nil.  Given count, each rank's COUNT part
// (darray's AppendPart, as GatherTo sends it) rides in the same message
// and rank 0 places it (PlacePart), so it also gets the whole COUNT,
// cell i at i−1.  Particle counts are whole numbers, so rank 0's sum in
// rank order is bit for bit any reduction tree's, and a max does not
// depend on the order.
func (b *imbalances) flush(ctx *machine.Ctx, count *core.Array) (imbs, counts []float64, err error) {
	n := len(b.pending)
	b.buf = msg.AppendFloat64s(b.buf[:0], b.pending)
	b.pending = b.pending[:0]
	if count != nil {
		b.buf = count.DArray().AppendPart(ctx, b.buf)
	}
	parts, err := ctx.Comm().Gather(0, b.buf)
	if err != nil || ctx.Rank() != 0 {
		return nil, nil, err
	}
	if count != nil {
		counts = make([]float64, count.Domain().Size())
	}
	imbs = make([]float64, 2*n) // sums, then maxes
	for r, part := range parts {
		if len(part) < 8*n || count == nil && len(part) != 8*n {
			return nil, nil, fmt.Errorf("apps: PIC imbalance gather at rank 0: part from rank %d has %d bytes for %d sums", r, len(part), n)
		}
		for i := range n {
			v := msg.GetFloat64(part, 8*i)
			imbs[i] += v
			imbs[n+i] = max(imbs[n+i], v)
		}
		if count != nil {
			if err := count.DArray().PlacePart(ctx, counts, r, part[8*n:]); err != nil {
				return nil, nil, err
			}
		}
	}
	for i := range n {
		imb := 1.0
		if avg := imbs[i] / float64(ctx.NP()); avg != 0 {
			imb = imbs[n+i] / avg
		}
		imbs[i] = imb
	}
	return imbs[:n], counts, nil
}

// runCells returns the cells of r, an owned run of the 1-D chain l holds:
// contiguous in storage whatever the distribution.
func runCells(l *darray.Local, r index.Run) []float64 {
	return l.Data()[l.Offset(index.Point{r.Lo}):][:r.Count()]
}

// driftHorizon is how many steps from step it on the distribution is sure
// to last: to the next rebalance check or the end of the run, whichever
// comes first.  A drift block goes no deeper.
func (cfg PICConfig) driftHorizon(it int) int {
	return min(cfg.RebalanceEvery-it%cfg.RebalanceEvery, cfg.Steps-it)
}

// updateField is Figure 2's update_field: work proportional to the
// local particle count, kernels.ParticleWork over each owned run of COUNT
// and FIELD.  The two are one connect class, so their runs match, and a
// run of a 1-D array lies contiguous in storage whatever the
// distribution (a CYCLIC(k) rank holds several).  The compute runs under
// a stopwatch so an injected straggler is stretched and its per-particle
// cost reported to the scorer.  It reads and writes the rank's own cells
// only, so nothing waits for it: no peer reads FIELD, and COUNT crosses
// to a peer only in a drift frame.  A listing whose COUNT is not
// distributed as FIELD is an error.
func updateField(ctx *machine.Ctx, cfg PICConfig, count, field *core.Array) error {
	lc, lf := count.Local(ctx), field.Local(ctx)
	runs := lc.Grid().Dims[0]
	if !slices.Equal(runs, lf.Grid().Dims[0]) {
		return fmt.Errorf("update_field: rank %d owns COUNT cells %v but FIELD cells %v; CONNECT COUNT to FIELD",
			ctx.Rank(), runs, lf.Grid().Dims[0])
	}
	particles := 0.0
	sw := stopwatch{ctx: ctx, sc: cfg.Straggler}
	sw.start()
	for _, r := range runs {
		cells := runCells(lc, r)
		particles += sum(cells)
		kernels.ParticleWork(runCells(lf, r), cells, cfg.WorkPerParticle)
	}
	sw.stop()
	ctx.Charge(flopTime * particles * float64(cfg.WorkPerParticle))
	sw.done(particles)
	return nil
}

// driftTag is the tag of the drift frames: [first cell, the sender's last
// k cells] as float64s.
const driftTag = 9100

// drift is one rank's half of update_part's boundary traffic.  A flow
// moves one cell a step, so for k steps everything that crosses into a
// rank is decided by its left neighbour's last k cells (the overlap-area
// argument of §4).  At the start of a block of k steps the neighbour
// sends those cells once; each step the receiver advances its copy — the
// depth-k ghost — with the owner's own arithmetic, in the owner's order,
// and adds what leaves the ghost's edge to its first cell.  The value
// lives as long as the rank: begin and balance end the current block.
type drift struct {
	frac  float64
	left  int       // steps left in the current block; 0 starts one
	ghost []float64 // cells lo−k..lo−1 as the left neighbour holds them; empty without one
	buf   []byte    // the frame being sent, reused (Send is done with it on return)
	// grid and runs hold one rank's cells at a time while start reads the
	// block sizes off the descriptor.
	grid index.Grid
	runs []index.Run
}

// restart ends the current block: the next step starts one under the
// distribution it finds.
func (dr *drift) restart() { dr.left = 0 }

// step moves frac of every cell's count one cell to the right (reflecting
// at the global last cell).  horizon is the number of steps the current
// distribution is sure to last — to the next rebalance check or the end
// of the run — and caps a new block's depth.  Transport failures and
// malformed frames are returned as errors naming both ranks, and cells
// that are not one block (a CYCLIC COUNT) as an error naming them.
func (dr *drift) step(ctx *machine.Ctx, count *core.Array, horizon int) error {
	n := count.Domain().Extent(0)
	l, cells, lo := count.Local(ctx), []float64(nil), 0
	if rs := l.Grid().Dims[0]; rs.Count() > 0 {
		if len(rs) > 1 || rs[0].Stride != 1 && rs[0].Count() > 1 {
			return fmt.Errorf("update_part: rank %d owns COUNT cells %v, not one block; distribute FIELD by BLOCK or B_BLOCK", ctx.Rank(), rs)
		}
		cells, lo = runCells(l, rs[0]), rs[0].Lo
	}
	if dr.left == 0 {
		if err := dr.start(ctx, count, cells, lo, n, horizon); err != nil {
			return err
		}
	}
	dr.left--
	shiftRight(cells, dr.frac, lo+len(cells)-1 == n)
	if len(dr.ghost) > 0 {
		cells[0] += shiftRight(dr.ghost, dr.frac, false)
	}
	// Give up the core at every step, as the blocking receive of a frame a
	// step used to: with more ranks than cores, Go's scheduler (which
	// preempts after 10 ms) otherwise runs whole blocks of one rank at a
	// time and can pack them onto the cores unevenly — pic_rebalance's
	// step time went bimodal, a third of the runs about 35 % slow.
	runtime.Gosched()
	return nil
}

// start begins a block of k steps: k is the largest depth every sender
// can fill and the distribution outlives, the same on every rank, read
// from the descriptor each holds.  A rank with cells after its own sends
// its last k cells to their owner; a rank with cells before its own
// receives its ghost.  Frames of one sender and tag arrive in order and
// both sides pair them by the same descriptor and the same k, so no
// barrier is needed: between two rebalance checks a rank may run up to
// RebalanceEvery steps ahead of its receiver, its block frames queued in
// order.  A block never outlives a check, and balance is the rendezvous
// before a DISTRIBUTE can re-pair them: no rank leaves the check's gather
// and broadcast before every rank has received the block frames it needs.
func (dr *drift) start(ctx *machine.Ctx, count *core.Array, cells []float64, lo, n, horizon int) error {
	d := count.DistOf(ctx.Rank())
	k := horizon
	for r := range ctx.NP() {
		dr.grid, dr.runs = d.LocalGridInto(dr.grid, dr.runs[:0], r)
		if rs := dr.grid.Dims[0]; rs.Count() > 0 && rs[len(rs)-1].Hi < n {
			k = min(k, rs.Count())
		}
	}
	dr.left = k
	dr.ghost = dr.ghost[:0]
	if len(cells) == 0 {
		return nil
	}
	ep, pol, tr := ctx.Endpoint(), ctx.Comm().Retry(), ctx.Tracer()
	if hi := lo + len(cells) - 1; hi < n {
		dr.buf = msg.AppendFloat64s(msg.AppendFloat64s(dr.buf[:0], []float64{float64(hi - k + 1)}), cells[len(cells)-k:])
		if err := msg.SendRetry(ep, pol, tr, "pic-drift", d.Owner(index.Point{hi + 1}), driftTag, dr.buf); err != nil {
			return fmt.Errorf("apps: PIC drift at rank %d: %w", ctx.Rank(), err)
		}
	}
	if lo == 1 {
		return nil
	}
	from := d.Owner(index.Point{lo - 1})
	p, err := msg.RecvRetry(ep, pol, tr, "pic-drift", from, driftTag)
	if err != nil {
		return fmt.Errorf("apps: PIC drift at rank %d: %w", ctx.Rank(), err)
	}
	defer p.Release()
	if len(p.Data) != 8*(k+1) {
		return fmt.Errorf("apps: PIC drift at rank %d: frame from rank %d has %d bytes, want 8·(k+1) = %d", ctx.Rank(), from, len(p.Data), 8*(k+1))
	}
	if first := msg.GetFloat64(p.Data, 0); first != float64(lo-k) {
		return fmt.Errorf("apps: PIC drift at rank %d: frame from rank %d starts at cell %v, want %d", ctx.Rank(), from, first, lo-k)
	}
	dr.ghost = slices.Grow(dr.ghost, k)[:k]
	msg.DecodeFloat64sInto(dr.ghost, p.Data[8:])
	return nil
}

// shiftRight moves frac of every cell's count one cell to the right within
// cells and returns what leaves the last one — nothing when it is the
// chain's reflecting end.  The walk runs right to left, so a cell's
// inflow does not cascade within a step.
func shiftRight(cells []float64, frac float64, reflect bool) (out float64) {
	for i := len(cells) - 1; i >= 0; i-- {
		if i == len(cells)-1 && reflect {
			continue
		}
		c := cells[i]
		mv := float64(int(c * frac))
		cells[i] = c - mv
		if i == len(cells)-1 {
			out = mv
		} else {
			cells[i+1] += mv
		}
	}
	return out
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
