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
// (internal/core moves a connect class through RedistributeClass and
// implements the NOTRANSFER attribute by passing the NoTransfer option).
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
	var cfg redistConfig
	for _, o := range opts {
		o(&cfg)
	}
	ms := [1]member{{a: a, newD: newD}}
	return moveClass(ctx, ms[:], cfg)
}

// RedistributeClass is RedistributeTo for the members of a connect class
// moving together, arrays[i] to dists[i], the first array being the
// primary: every sender–receiver pair exchanges one message carrying each
// transferring member's segment in class order (§3.2.2 steps 2–3 as one
// communication).  Both ends derive each member's share from the
// schedules they hold, so the message has no header.  Under a MemBudget
// each member moves on its own, so the budget bounds each member's peak.
// A failed class move leaves every member as a failed RedistributeTo
// leaves its array; the error names the first moving member.
func RedistributeClass(ctx *machine.Ctx, arrays []*Array, dists []*dist.Distribution, opts ...RedistOption) error {
	if len(arrays) != len(dists) {
		panic(fmt.Sprintf("darray: class move of %d arrays to %d distributions", len(arrays), len(dists)))
	}
	var cfg redistConfig
	for _, o := range opts {
		o(&cfg)
	}
	ms := make([]member, len(arrays))
	for i, a := range arrays {
		ms[i] = member{a: a, newD: dists[i]}
	}
	if cfg.memBudget > 0 {
		for i := range ms {
			if err := moveClass(ctx, ms[i:i+1], cfg); err != nil {
				return err
			}
		}
		return nil
	}
	return moveClass(ctx, ms, cfg)
}

// member is one array's part of a class move: mv is its entry in the
// array's move table and plan the transfer plan of the step being
// executed, nil when that step crosses no boundary of this rank.
type member struct {
	a                  *Array
	oldD, newD         *dist.Distribution
	mv                 *move
	hit                bool
	oldLocal, newLocal *Local
	plan               *xferPlan
}

// move is everything a rank keeps of one DISTRIBUTE between two
// mappings, built by its first run (moveOf) and read by every later one.
type move struct {
	sched *redist.Schedule
	// plan is the budget's decomposition, nil without a budget.
	plan *redist.Plan
	// steps are the ring passes: one over the whole domain, or one per
	// panel of plan.  one backs steps for a move without a plan.
	steps []moveStep
	one   [1]moveStep
}

// moveKey identifies a move structurally: SPMD ranks build their own
// logically-equal Distribution objects, so fingerprints rather than
// pointers key it.  np is part of the key because a schedule enumerates
// peers 0..np-1: after a membership Regroup shrinks the view, a move
// built for the wider epoch would address ranks that no longer exist.
// budget is the MemBudget the move is planned under, 0 for none.
type moveKey struct {
	oldFP, newFP string
	np           int
	budget       int64
}

// moveStep is one ring pass of a move: sched restricted to the step's
// panel, and its transfer plan, built by the step's first run that
// crosses a boundary of this rank.
type moveStep struct {
	sched *redist.Schedule
	xfer  *xferPlan
}

// maxMoves bounds a rank's move table.  Phase-alternating programs (ADI
// bounces between two mappings) cycle through a handful of moves and
// never reach it; a program that moves to fresh bounds at every
// DISTRIBUTE (PIC's rebalancing) would otherwise grow by one entry per
// move, so at the bound the rank starts over — rebuilding a move costs
// one schedule and a few layouts.
const maxMoves = 16

// moveOf returns rank's move from oldD to newD over np ranks under
// budget (0: none), building it on a miss.  Under a budget a miss plans
// the move (redist.PlanMove), which every rank computes identically from
// the distributions alone, so every rank fails with ErrNoPlan or none
// does.  The table is rank-private: no lock is taken.
func (a *Array) moveOf(rank, np int, oldD, newD *dist.Distribution, budget int64) (mv *move, hit bool, err error) {
	own := &a.own[rank]
	k := moveKey{oldD.Fingerprint(), newD.Fingerprint(), np, budget}
	if mv := own.moves[k]; mv != nil {
		a.hits.Add(1)
		return mv, true, nil
	}
	mv = &move{}
	if budget > 0 {
		if mv.plan, err = redist.PlanMove(oldD, newD, np, redist.PlanOptions{MemBudget: budget}); err != nil {
			return nil, false, err
		}
	}
	mv.sched = redist.Build(oldD, newD, rank, np)
	if mv.plan == nil {
		mv.one[0].sched = mv.sched
		mv.steps = mv.one[:]
	} else {
		mv.steps = make([]moveStep, len(mv.plan.Steps))
		for i := range mv.steps {
			mv.steps[i].sched = mv.plan.StepSchedule(mv.sched, i)
		}
	}
	switch {
	case own.moves == nil:
		own.moves = make(map[moveKey]*move)
	case len(own.moves) >= maxMoves:
		clear(own.moves)
	}
	own.moves[k] = mv
	a.misses.Add(1)
	return mv, false, nil
}

// moveClass runs the class move of ms: each member settles its window,
// looks its move up and takes its new storage, every self-transfer is
// copied, the remote transfers go in one stepDirect ring, and each member
// commits.  A budget applies to a lone member (RedistributeClass moves a
// class member by member under one): the ring then runs once per panel
// of its plan.  A member already at its new distribution does not move.
func moveClass(ctx *machine.Ctx, ms []member, cfg redistConfig) error {
	rank := ctx.Rank()
	n := 0
	for _, m := range ms {
		if m.newD == nil {
			panic("darray: Redistribute with nil distribution")
		}
		if !m.newD.Domain().Equal(m.a.dom) {
			panic(fmt.Sprintf("darray: %s: new distribution domain %v != array domain %v", m.a.name, m.newD.Domain(), m.a.dom))
		}
		if m.oldD = m.a.Dist(rank); m.oldD == nil || !m.oldD.Equal(m.newD) {
			ms[n] = m
			n++
		} // else a no-op redistribution: nothing moves, descriptor unchanged
	}
	if ms = ms[:n]; n == 0 {
		return nil
	}

	tr := ctx.Tracer()
	prank := ctx.PhysRank() // trace timelines are physical-rank indexed
	for i := range ms {
		ms[i].a.spans()
	}
	lead := ms[0].a
	sp := tr.BeginSpan(prank, trace.CatDistribute, lead.span)
	defer sp.End()

	// Peers of the previous move may still be pulling from the storage
	// each member offered then, which takeLocal is about to recycle.
	for i := range ms {
		if err := ms[i].a.win.Settle(ctx.Comm()); err != nil {
			return fmt.Errorf("darray: %s: redistribution: %w", ms[i].a.name, err)
		}
	}

	// The move runs stepDirect once over the whole domain or, under a
	// memory budget, once per panel of the plan that fits it.  Without a
	// budget none is built — planning builds every rank's schedule, which
	// matters on redistribute-heavy loops.  Every move is looked up before
	// any storage is taken, so a budget no plan fits fails every rank here
	// symmetrically, with the old distribution in place and readable.
	var budget int64
	if cfg.memBudget > 0 && !cfg.noTransfer {
		budget = cfg.memBudget
	}
	for i := range ms {
		m := &ms[i]
		if m.oldD == nil {
			continue
		}
		var psp trace.Span
		if budget > 0 {
			psp = tr.BeginSpan(prank, trace.CatRedist, "redist:plan")
		}
		var err error
		m.mv, m.hit, err = m.a.moveOf(rank, ctx.NP(), m.oldD, m.newD, budget)
		psp.End()
		if err != nil {
			return fmt.Errorf("darray: %s: redistribution planning: %w", m.a.name, err)
		}
	}
	n = 0
	for i, m := range ms {
		// A secondary's own span holds its share of the setup; the wire
		// traffic is the class's and lands in the lead's.
		var msp trace.Span
		if i > 0 {
			msp = tr.BeginSpan(prank, trace.CatDistribute, m.a.span)
		}
		a := m.a
		m.newLocal = a.takeLocal(rank, m.newD, m.oldD != nil && !cfg.noTransfer)
		if m.oldD == nil {
			a.commit(rank, m.newD, m.newLocal) // first association: no data to move
			msp.End()
			continue
		}
		m.oldLocal = a.locals[rank]
		sched := m.mv.sched
		schedEv := "sched:miss"
		if m.hit {
			schedEv = "sched:hit"
		}
		// What this rank already holds of its new part — under
		// NOTRANSFER all it keeps — never touches the wire: copy it whole
		// before the ring (still only into the uncommitted newLocal).
		if keep := sched.LocalKeep; !keep.Empty() {
			copyGrid(m.newLocal, m.oldLocal, keep)
		}
		if cfg.noTransfer {
			tr.Instant(prank, trace.CatDistribute, schedEv, -1, 0)
			a.commit(rank, m.newD, m.newLocal)
			a.retireLocal(rank, m.oldD, m.oldLocal)
			msp.End()
			continue
		}
		tr.Instant(prank, trace.CatDistribute, schedEv, -1, int64(sched.SendBytes()))
		ms[n] = m
		n++
		msp.End()
	}
	if ms = ms[:n]; n == 0 {
		return nil
	}
	lead = ms[0].a
	steps, planEv, peak := len(ms[0].mv.steps), "plan:direct", int64(-1)
	if p := ms[0].mv.plan; p != nil {
		planEv, peak = "plan:"+p.Kind, p.PeakBytes
	}
	tr.Instant(prank, trace.CatRedist, planEv, -1, peak)
	st := lead.m.Stats()
	for k := 0; k < steps; k++ {
		ssp := tr.BeginSpan(prank, trace.CatRedist, "redist:step")
		err := stepDirect(ctx, ms, k, st)
		ssp.End()
		if err != nil {
			return fmt.Errorf("darray: %s: redistribution step %d/%d: %w", lead.name, k+1, steps, err)
		}
	}

	// Every transfer into each newLocal has landed: the ring returned only
	// after this rank's last pull or unpack.  Commit without waiting for
	// the peers still pulling from the old storage — each window keeps
	// offering it until this rank's next Settle of that window.
	for _, m := range ms {
		m.a.commit(rank, m.newD, m.newLocal)
		m.a.retireLocal(rank, m.oldD, m.oldLocal)
	}
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
// per step of a move: the result is kept in the move's entry, so a warm
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

// stepDirect executes one step of a class move in one pass of the
// staggered ring — DISTRIBUTE's one executor, run once per step of the
// plan: each round sends this rank's transfer to one peer and receives
// its transfer from another, one message each way carrying every
// member's segment for that pair in class order, so at most one outgoing
// and one incoming transfer are resident at a time (the peak
// redist.PlanMove models for a lone member).  A pair whose segments are
// all rects on both layouts goes through the windows (Offer/Pull on the
// lead's stream, one share per member): on shared memory the receiver
// copies each segment straight out of its member's old storage into that
// member's unpublished new Local, a single copy with nothing resident on
// the wire; on other transports the segments travel in one frame written
// straight from the old storage's runs.
// Any other pair is packed just in time into the lead's one recycled
// stream buffer and unpacked on arrival, and its received buffer goes
// back to the transport.  A sender's old Locals stay untouched until its
// next move's Settle of each member window has every puller's done token.
func stepDirect(ctx *machine.Ctx, ms []member, k int, st *msg.Stats) error {
	rank, np := ctx.Rank(), ctx.NP()
	remote := false
	for i := range ms {
		m := &ms[i]
		// A step that crosses no boundary of this rank (a DISTRIBUTE that
		// only renames the mapping, PIC's first balance) needs no plan: no
		// peer offers to it or pulls from it.
		s := &m.mv.steps[k]
		m.plan = nil
		if hasRemote(s.sched) {
			if s.xfer == nil {
				s.xfer = m.a.planTransfers(m.oldD, m.newD, s.sched, np, m.oldLocal, m.newLocal)
			}
			m.plan, remote = s.xfer, true
		}
	}
	if !remote {
		return nil
	}
	// Stats slices are physical-rank indexed (sized to the transport);
	// after a regroup/join the view rank diverges from the physical one,
	// and charging the view rank would misattribute the gauge to another
	// (possibly dead) rank's slot.
	prank := ctx.PhysRank()
	lead := ms[0].a
	own := &lead.own[rank]
	win, c := lead.win, ctx.Comm()
	return c.Ring(func(to, from int) error {
		var buf [4]msg.Share // a round's shares, on the stack for classes of up to 4
		switch count, rects := pairOf(ms, to, true); {
		case count == 0:
		case rects:
			shares := buf[:0]
			for i := range ms {
				if x := ms[i].xferTo(to, true); x != nil {
					shares = append(shares, msg.Share{Win: ms[i].a.win, Src: x.src})
				}
			}
			if err := win.Offer(c, to, redistSubtag, shares); err != nil {
				return err
			}
		default:
			own.stream = own.streamBuf(count)
			for i := range ms {
				if x := ms[i].xferTo(to, true); x != nil {
					own.stream = ms[i].oldLocal.appendPacked(own.stream, x.grid)
				}
			}
			if err := win.OfferPacked(c, to, redistSubtag, own.stream); err != nil {
				return err
			}
		}
		count, rects := pairOf(ms, from, false)
		if count == 0 {
			return nil
		}
		if rects {
			shares := buf[:0]
			for i := range ms {
				if x := ms[i].xferTo(from, false); x != nil {
					shares = append(shares, msg.Share{Win: ms[i].a.win, Src: x.src, Dst: ms[i].newLocal.data, Dr: x.dst})
				}
			}
			return win.Pull(c, from, redistSubtag, shares)
		}
		p, err := win.PullPacked(c, from, redistSubtag)
		if err != nil {
			return err
		}
		defer p.Release()
		if len(p.Data) != 8*count {
			return fmt.Errorf("darray: %s: rank %d: transfer from rank %d has %d bytes, want %d", lead.name, rank, from, len(p.Data), 8*count)
		}
		n := int64(len(p.Data))
		st.WireAcquire(prank, n)
		off := 0
		for i := range ms {
			if x := ms[i].xferTo(from, false); x != nil {
				ms[i].newLocal.unpackWire(x.grid, p.Data[off:off+8*x.count])
				off += 8 * x.count
			}
		}
		st.WireRelease(prank, n)
		return nil
	})
}

// xferTo returns m's transfer to (send) or from (!send) peer, nil when
// there is none.
func (m *member) xferTo(peer int, send bool) *xfer {
	if m.plan == nil {
		return nil
	}
	x := &m.plan.recv[peer]
	if send {
		x = &m.plan.send[peer]
	}
	if x.count == 0 {
		return nil
	}
	return x
}

// pairOf sums the members' transfers to (send) or from (!send) peer and
// reports whether every one is a rect.  Both ends of a pair compute it
// from the same schedules and layouts, so they agree on the message.
func pairOf(ms []member, peer int, send bool) (count int, rects bool) {
	rects = true
	for i := range ms {
		if x := ms[i].xferTo(peer, send); x != nil {
			count += x.count
			rects = rects && x.rect
		}
	}
	return count, rects
}

// ScheduleCacheStats returns (hits, misses) of the ranks' move tables,
// summed over ranks — phase-alternating programs should show hits after
// the first iteration.
func (a *Array) ScheduleCacheStats() (hits, misses int) {
	return int(a.hits.Load()), int(a.misses.Load())
}
