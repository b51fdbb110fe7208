package darray

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/redist"
	"repro/internal/trace"
)

// RedistOption configures a single-array redistribution.
type RedistOption func(*redistConfig)

type redistConfig struct {
	noTransfer bool
	memBudget  int64
}

// NoTransfer requests the paper's NOTRANSFER semantics: "only the access
// function ... is changed and the elements of the array are not
// physically moved".  The new storage is zero-filled except for elements
// the processor already owned, which are kept in place.
func NoTransfer() RedistOption {
	return func(c *redistConfig) { c.noTransfer = true }
}

// MemBudget bounds the peak resident wire bytes per rank during the
// redistribution.  The planner decomposes the move into bounded steps
// that fit; if even the finest decomposition exceeds the budget the
// redistribution fails (on every rank symmetrically, before any data
// moves) and the old distribution stays fully readable.  n <= 0 means
// unbounded: one pass of the ring over the whole domain, with no plan.
func MemBudget(n int64) RedistOption {
	return func(c *redistConfig) { c.memBudget = n }
}

// RedistributeTo collectively re-associates the array with newD and moves
// the data so that every element keeps its value under the new mapping —
// the executable DISTRIBUTE statement of §2.4 for a single array
// (internal/core drives it across connect classes and implements the
// NOTRANSFER attribute by passing the NoTransfer option).
//
// The implementation follows §3.2.2 step by step: each processor
// evaluates the new distribution, determines the new locations of its
// current local data from the symmetric communication schedule, sends it,
// and receives its new local data.  Ghost areas are reallocated (their
// contents become stale and must be refreshed with ExchangeAllGhosts).
//
// Nothing in it is a global rendezvous.  A processor commits — installs
// its new Local and descriptor — as soon as its own incoming data has
// landed, while peers may still be pulling from its old storage; the
// window keeps offering that storage until the processor's next move
// collects the pullers' done tokens (msg.Window.Settle), and only then is
// it recycled.  A processor that fails returns before committing and
// keeps its old Local and distribution, but peers that completed their
// part have committed theirs: a failed DISTRIBUTE leaves the array
// inconsistent across processors, and recovery replays the last
// checkpoint (core.RunEpochs does, under the apps' step loop).
//
// Every processor must pass the same newD object.  Programmer errors (nil
// or domain-mismatched distribution) panic; transport failures during the
// data exchange are returned as errors wrapping the underlying cause.
func (a *Array) RedistributeTo(ctx *machine.Ctx, newD *dist.Distribution, opts ...RedistOption) error {
	if newD == nil {
		panic("darray: Redistribute with nil distribution")
	}
	if !newD.Domain().Equal(a.dom) {
		panic(fmt.Sprintf("darray: %s: new distribution domain %v != array domain %v", a.name, newD.Domain(), a.dom))
	}
	var cfg redistConfig
	for _, o := range opts {
		o(&cfg)
	}
	rank, np := ctx.Rank(), ctx.NP()
	oldD := a.Dist(rank)
	if oldD != nil && oldD.Equal(newD) {
		return nil // no-op redistribution: nothing moves, descriptor unchanged
	}

	tr := ctx.Tracer()
	prank := ctx.PhysRank() // trace timelines are physical-rank indexed
	a.spans()
	sp := tr.BeginSpan(prank, trace.CatDistribute, a.span)
	defer sp.End()

	// Peers of the previous move may still be pulling from the storage
	// this rank offered then, which takeLocal is about to recycle.
	if err := a.win.Settle(ctx.Comm()); err != nil {
		return fmt.Errorf("darray: %s: redistribution: %w", a.name, err)
	}
	newLocal := a.takeLocal(rank, newD, oldD != nil && !cfg.noTransfer)
	if oldD == nil {
		a.commit(rank, newD, newLocal) // first association: no data to move
		return nil
	}

	oldLocal := a.locals[rank]
	sched, hit := a.cache.Get(oldD, newD, rank, np)
	schedEv := "sched:miss"
	if hit {
		schedEv = "sched:hit"
	}

	if cfg.noTransfer {
		// NOTRANSFER: keep whatever was already in place.
		tr.Instant(prank, trace.CatDistribute, schedEv, -1, 0)
		if keep := sched.LocalKeep; !keep.Empty() {
			copyGrid(newLocal, oldLocal, keep)
		}
	} else {
		// The move runs stepDirect once over the whole domain or, under a
		// memory budget, once per panel of the plan that fits it.  The plan
		// is computed identically on every rank from the distributions
		// alone (and cached), so no coordination is needed; without a
		// budget none is built — planning builds every rank's schedule,
		// which matters on redistribute-heavy loops.
		var plan *redist.Plan
		steps, planEv, peak := 1, "plan:direct", int64(-1)
		if cfg.memBudget > 0 {
			psp := tr.BeginSpan(prank, trace.CatRedist, "redist:plan")
			p, err := a.cache.GetPlan(oldD, newD, np, redist.PlanOptions{MemBudget: cfg.memBudget})
			psp.End()
			if err != nil {
				// Every rank fails here symmetrically before any data moves:
				// the old distribution stays in place and readable.
				a.retireLocal(rank, newD, newLocal)
				return fmt.Errorf("darray: %s: redistribution planning: %w", a.name, err)
			}
			plan, steps, planEv, peak = p, len(p.Steps), "plan:"+p.Kind, p.PeakBytes
		}
		tr.Instant(prank, trace.CatDistribute, schedEv, -1, int64(sched.SendBytes()))
		tr.Instant(prank, trace.CatRedist, planEv, -1, peak)

		// The self-transfer never touches the wire: copy it whole before
		// the ring (still only into the uncommitted newLocal).
		for _, t := range sched.Sends {
			if t.Peer == rank {
				copyGrid(newLocal, oldLocal, t.Grid)
			}
		}
		st := a.m.Stats()
		for k := 0; k < steps; k++ {
			sub := sched
			if plan != nil {
				sub = plan.StepSchedule(sched, k)
			}
			ssp := tr.BeginSpan(prank, trace.CatRedist, "redist:step")
			err := a.stepDirect(ctx, oldD, newD, sub, oldLocal, newLocal, st)
			ssp.End()
			if err != nil {
				return fmt.Errorf("darray: %s: redistribution step %d/%d: %w", a.name, k+1, steps, err)
			}
		}
	}

	// Every transfer into newLocal has landed: the ring returned only
	// after this rank's last pull or unpack.  Commit without waiting for
	// the peers still pulling from oldLocal — the window keeps offering it
	// until this rank's next Settle.
	a.commit(rank, newD, newLocal)
	a.retireLocal(rank, oldD, oldLocal)
	return nil
}

// commit makes l and d this rank's storage and descriptor: l becomes the
// storage its ghost awaits apply into, and its next ghost exchange builds
// a plan for d.  No neighbour is told: a face put before or after the
// neighbour's own commit lands at the neighbour's matching await, in
// whatever storage the neighbour has committed by then.
func (a *Array) commit(rank int, d *dist.Distribution, l *Local) {
	a.locals[rank] = l
	a.win.Register(rank, l.data)
	own := &a.own[rank]
	own.dst.Store(d)
	own.epoc++
}

// redistSubtag is the window stream a DISTRIBUTE's offers travel on; the
// ghost exchange owns the subtags below it.
const redistSubtag = msg.MaxSubtag

// xfer is one remote transfer of a schedule as stepDirect executes it.
// count == 0 marks a peer with no transfer.
type xfer struct {
	grid  index.Grid
	count int
	// rect says the grid is one run per dimension and affine on both the
	// sender's old layout and the receiver's new one: it moves through the
	// window as src (in the sender's old storage) and dst (in the
	// receiver's new storage; a sender needs no dst).  Both ends evaluate
	// this from the same two layouts and the same grid, so they agree —
	// per transfer: a rank whose other transfers are not rects still
	// offers and pulls this one.  Any other grid travels packed.
	rect     bool
	src, dst msg.Rect
}

// xferPlan is a schedule's remote transfers indexed by peer.
type xferPlan struct {
	send, recv []xfer
}

// maxPlans bounds the transfer plans a rank keeps.  Phase-alternating
// programs cycle through a handful of schedules and never reach it; a
// program that moves to fresh bounds at every DISTRIBUTE (PIC's
// rebalancing) would otherwise grow by one plan per move, so at the bound
// the rank starts over — rebuilding a plan costs a few layouts.
const maxPlans = 16

// rect returns g's region of storage laid out by l; ok is false unless g
// is one run per dimension and each run is affine in l (dimSpan).  The
// rect's dimensions are written into dims, which must hold g.Rank().
func (l *layout) rect(g index.Grid, dims []msg.RectDim) (r msg.Rect, ok bool) {
	for k, rs := range g.Dims {
		if len(rs) != 1 {
			return msg.Rect{}, false
		}
		li0, step, ok := l.dimSpan(k, rs[0])
		if !ok {
			return msg.Rect{}, false
		}
		r.Off += li0 * l.strd[k]
		dims[k] = msg.RectDim{Stride: step * l.strd[k], Count: rs[0].Count()}
	}
	r.Dims = dims
	return r, true
}

// hasRemote reports whether any transfer of s crosses ranks.
func hasRemote(s *redist.Schedule) bool {
	for _, ts := range [2][]redist.Transfer{s.Sends, s.Recvs} {
		for i := range ts {
			if ts[i].Peer != s.Rank {
				return true
			}
		}
	}
	return false
}

// planTransfers lays sched's remote transfers out per peer and, for each
// that qualifies, computes its window rects.  The peer's side comes from
// the descriptor (layoutOf), never from the peer's Local.  It runs once
// per schedule: the result is kept beside the cached schedule, so a warm
// DISTRIBUTE builds no geometry.
func (a *Array) planTransfers(oldD, newD *dist.Distribution, sched *redist.Schedule, np int, oldLocal, newLocal *Local) *xferPlan {
	rank, r := sched.Rank, a.dom.Rank()
	xs := make([]xfer, 2*np)
	plan := &xferPlan{send: xs[:np:np], recv: xs[np:]}
	// One backing array for every rect: a src per send, src and dst per
	// receive, plus one scratch for the side whose rect is not kept.
	dims := make([]msg.RectDim, r*(len(sched.Sends)+2*len(sched.Recvs)+1))
	take := func() []msg.RectDim {
		d := dims[:r:r]
		dims = dims[r:]
		return d
	}
	scratch := take()
	for _, t := range sched.Sends {
		if t.Peer == rank {
			continue
		}
		x := &plan.send[t.Peer]
		x.grid, x.count = t.Grid, t.Count
		if src, ok := oldLocal.rect(t.Grid, take()); ok {
			peer := a.layoutOf(t.Peer, newD)
			if _, ok := peer.rect(t.Grid, scratch); ok {
				x.rect, x.src = true, src
			}
		}
	}
	for _, t := range sched.Recvs {
		if t.Peer == rank {
			continue
		}
		x := &plan.recv[t.Peer]
		x.grid, x.count = t.Grid, t.Count
		if dst, ok := newLocal.rect(t.Grid, take()); ok {
			peer := a.layoutOf(t.Peer, oldD)
			if src, ok := peer.rect(t.Grid, take()); ok {
				x.rect, x.src, x.dst = true, src, dst
			}
		}
	}
	return plan
}

// stepDirect executes the step's schedule in one pass of the staggered
// ring — DISTRIBUTE's one executor, run once per step of the plan: each
// round sends this rank's transfer to one peer and receives its transfer
// from another, so at most one outgoing and one incoming transfer are
// resident at a time (the peak redist.PlanMove models).  A transfer that
// is a rect on both layouts goes through the array's window (Offer/Pull):
// on shared memory the receiver copies it straight out of the sender's
// old storage into its own unpublished new Local, a single copy with
// nothing resident on the wire; on other transports the window moves it
// packed.  Any other transfer is packed just in time into the one
// recycled stream buffer and unpacked on arrival, and its received buffer
// goes back to the transport.  The sender's old Local stays untouched
// until its next move's Settle has every puller's done token.
func (a *Array) stepDirect(ctx *machine.Ctx, oldD, newD *dist.Distribution, sched *redist.Schedule, oldLocal, newLocal *Local, st *msg.Stats) error {
	if !hasRemote(sched) {
		// Nothing crosses this rank's boundary (a DISTRIBUTE that only
		// renames the mapping, PIC's first balance): no peer offers to it
		// or pulls from it, so it needs neither plan nor window.
		return nil
	}
	rank := ctx.Rank()
	// Stats slices are physical-rank indexed (sized to the transport);
	// after a regroup/join the view rank diverges from the physical one,
	// and charging the view rank would misattribute the gauge to another
	// (possibly dead) rank's slot.
	prank := ctx.PhysRank()
	own := &a.own[rank]
	plan := own.plans[sched]
	if plan == nil {
		plan = a.planTransfers(oldD, newD, sched, ctx.NP(), oldLocal, newLocal)
		switch {
		case own.plans == nil:
			own.plans = make(map[*redist.Schedule]*xferPlan)
		case len(own.plans) >= maxPlans:
			clear(own.plans)
		}
		own.plans[sched] = plan
	}
	win, c := a.win, ctx.Comm()
	return c.Ring(func(to, from int) error {
		if x := &plan.send[to]; x.rect {
			if err := win.Offer(c, to, redistSubtag, x.src); err != nil {
				return err
			}
		} else if x.count > 0 {
			own.stream = oldLocal.appendPacked(own.streamBuf(x.count), x.grid)
			if err := win.OfferPacked(c, to, redistSubtag, own.stream); err != nil {
				return err
			}
		}
		if x := &plan.recv[from]; x.rect {
			return win.Pull(c, from, redistSubtag, x.src, newLocal.data, x.dst)
		} else if x.count > 0 {
			p, err := win.PullPacked(c, from, redistSubtag)
			if err != nil {
				return err
			}
			n := int64(len(p.Data))
			st.WireAcquire(prank, n)
			newLocal.unpackWire(x.grid, p.Data)
			st.WireRelease(prank, n)
			p.Release()
		}
		return nil
	})
}

// ScheduleCacheStats returns (hits, misses) of the redistribution
// schedule cache — phase-alternating programs should show hits after the
// first iteration.
func (a *Array) ScheduleCacheStats() (hits, misses int) {
	return a.cache.Stats()
}
