package apps

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/scale"
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
	// WorkPerParticle spins this many arithmetic ops per particle in
	// update_field, making wall time reflect the load (default 40).
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
		flushEvery := testFlushEvery || cfg.Elastic || cfg.Straggler.mitigating()
		dr := &drift{frac: cfg.DriftFrac}
		// balance computes BOUNDS equalizing particles per processor, then
		// DISTRIBUTE FIELD :: B_BLOCK(BOUNDS) — moving COUNT with it.  No
		// barrier follows, and the DISTRIBUTE has none: a rank leaves it
		// once its own new blocks have landed, and the next step touches
		// only those.  The drift block ends with it: the next step's frame,
		// addressed by the new descriptor, waits in the receiver's mailbox
		// until the receiver has moved too.
		balance := func() error {
			dr.restart()
			bounds, err := picBounds(ctx, count, speedShares)
			if err != nil {
				return err
			}
			if err := redists.count(ctx, func() error {
				return eng.Distribute(ctx, []*core.Array{field}, core.DimsOf(dist.BBlockDim(bounds...)))
			}); err != nil {
				return err
			}
			if ctx.Rank() == 0 {
				res.Redistributions++
			}
			return nil
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
				updateField(ctx, cfg, count, field)
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
				// The series on rank 0 gets the batch ending at step it.
				imbs, err := batch.flush(ctx)
				if err != nil {
					return err
				}
				if ctx.Rank() == 0 {
					copy(res.ImbalanceSeries[it+1-len(imbs):], imbs)
				}
				if cfg.Rebalance && check && imbs[len(imbs)-1] > cfg.RebalanceThreshold {
					return balance()
				}
				return nil
			},
			// A straggler rebalance re-divides the particles by measured
			// speed immediately, so the straggler gets fewer particles.
			rebalance: func(speeds []float64) error {
				speedShares = scale.FairShares(speeds)
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
// rank 0, B_BLOCK bounds equalizing particles per processor there — or,
// given shares, per unit of measured speed — and broadcast to every rank.
func picBounds(ctx *machine.Ctx, count *core.Array, shares []float64) ([]int, error) {
	counts, err := count.GatherTo(ctx, 0)
	if err != nil {
		return nil, err
	}
	var bounds []int
	if ctx.Rank() == 0 {
		if shares != nil {
			bounds = scale.WeightedCountBounds(counts, shares)
		} else {
			bounds = scale.CountBounds(counts, ctx.NP())
		}
	}
	return ctx.Comm().BcastInts(0, bounds)
}

// imbalances batches Figure 2's rebalance() input: add appends a step's
// particle sum over this rank's cells, flush reduces every pending one.
// vals and ops are the flush's reduction vector and operations, kept so
// that a longer batch allocates nothing more.
type imbalances struct {
	pending, vals []float64
	ops           []func(a, b float64) float64
}

func (b *imbalances) add(ctx *machine.Ctx, count *core.Array) {
	local := 0.0
	count.Local(ctx).ForEachOwned(func(_ index.Point, v *float64) { local += *v })
	b.pending = append(b.pending, local)
}

// flush reduces the pending batch (at least one step) in one
// AllreduceEach of [sums…, maxes…] and returns each step's max/avg
// particles per processor, the same on every rank.  Every element takes
// the binomial tree of a scalar allreduce, so each value is bit for bit
// what a reduction on every step would give.
func (b *imbalances) flush(ctx *machine.Ctx) ([]float64, error) {
	n := len(b.pending)
	b.vals = append(append(b.vals[:0], b.pending...), b.pending...)
	b.ops = b.ops[:0]
	for range n {
		b.ops = append(b.ops, msg.SumF64)
	}
	for range n {
		b.ops = append(b.ops, msg.MaxF64)
	}
	b.pending = b.pending[:0]
	r, err := ctx.Comm().AllreduceEach(b.vals, b.ops...)
	if err != nil {
		return nil, err
	}
	for i := range n {
		imb := 1.0
		if avg := r[i] / float64(ctx.NP()); avg != 0 {
			imb = r[n+i] / avg
		}
		r[i] = imb
	}
	return r[:n], nil
}

// driftHorizon is how many steps from step it on the distribution is sure
// to last: to the next rebalance check or the end of the run, whichever
// comes first.  A drift block goes no deeper.
func (cfg PICConfig) driftHorizon(it int) int {
	return min(cfg.RebalanceEvery-it%cfg.RebalanceEvery, cfg.Steps-it)
}

// updateField is Figure 2's update_field: work proportional to the
// local particle count.  The compute runs under timed so an injected
// straggler is stretched and its per-particle cost reported to the
// scorer.  It reads and writes the rank's own cells only, so nothing
// waits for it: no peer reads FIELD, and COUNT crosses to a peer only in
// a drift frame.
func updateField(ctx *machine.Ctx, cfg PICConfig, count, field *core.Array) {
	lc, lf := count.Local(ctx), field.Local(ctx)
	particles := 0.0
	el := cfg.Straggler.timed(ctx, func() {
		lc.ForEachOwned(func(p index.Point, v *float64) {
			n := int(*v)
			particles += *v
			acc := lf.At(p)
			for w := 0; w < n*cfg.WorkPerParticle; w++ {
				acc += 1e-9 * float64(w%7)
			}
			lf.SetAt(p, acc+*v)
		})
	})
	ctx.Charge(flopTime * particles * float64(cfg.WorkPerParticle))
	if cfg.Straggler.Enabled() {
		ctx.ReportWork(particles, el)
	}
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
}

// restart ends the current block: the next step starts one under the
// distribution it finds.
func (dr *drift) restart() { dr.left = 0 }

// step moves frac of every cell's count one cell to the right (reflecting
// at the global last cell).  horizon is the number of steps the current
// distribution is sure to last — to the next rebalance check or the end
// of the run — and caps a new block's depth.  Transport failures and
// malformed frames are returned as errors naming both ranks.
func (dr *drift) step(ctx *machine.Ctx, count *core.Array, horizon int) error {
	l := count.Local(ctx)
	n := count.Domain().Extent(0)
	rs := l.Grid().Dims[0]
	var cells []float64 // the owned cells, contiguous in storage: cell i is cells[i-lo]
	lo := 0
	if rs.Count() > 0 {
		lo = rs[0].Lo
		// One Offset for the walk, not an At/SetAt per cell: every Point
		// handed to those is an allocation (Offset's panic message makes it
		// escape).
		cells = l.Data()[l.Offset(index.Point{lo}):][:rs[len(rs)-1].Hi-lo+1]
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
// before a DISTRIBUTE can re-pair them: no rank leaves its GatherTo and
// BcastInts before every rank has received the block frames it needs.
func (dr *drift) start(ctx *machine.Ctx, count *core.Array, cells []float64, lo, n, horizon int) error {
	d := count.DistOf(ctx.Rank())
	k := horizon
	for r := range ctx.NP() {
		if rs := d.LocalGrid(r).Dims[0]; rs.Count() > 0 && rs[len(rs)-1].Hi < n {
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
