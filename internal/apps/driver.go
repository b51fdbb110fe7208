package apps

import (
	"errors"
	"strconv"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/trace"
)

// Runtime is the run settings the three applications share: transport,
// fault injection, deadlines, checkpoints, recovery, elastic join,
// memory budget and straggler defense.  ADIConfig, SmoothConfig and
// PICConfig embed it; NewMachine builds a machine from it.  An "iteration"
// below is a step in smoothing and PIC.  The zero value is a plain run.
type Runtime struct {
	// UseTCP runs the machine over the TCP loopback transport instead of
	// the in-process one (same semantics, real sockets).
	UseTCP bool
	// Tracer, when non-nil, records the run's spans and messages (ADI's
	// loop is the "iterate" phase, smoothing's the "smooth" phase).
	Tracer *trace.Tracer
	// Fault, when non-empty, wraps the transport in a fault-injecting
	// decorator built from msg.ParseFaultPlan.
	Fault string
	// CommTimeout/CommRetries install a deadline/retry policy on the
	// collectives so injected faults surface as errors instead of hangs.
	// The escalated per-receive deadline is capped at 4×CommTimeout.  A
	// CommTimeout also turns the machine's membership machinery on: a
	// missed deadline raises a suspicion of the peer, two unanswered
	// probes confirm a death, and Outcome.Survivors reports the ranks
	// left.
	CommTimeout time.Duration
	CommRetries int
	// CkptDir enables coordinated checkpoints: after every CkptEvery-th
	// completed iteration (default every one) the app's arrays and their
	// distribution descriptors are written to this directory (see
	// internal/ckpt).
	CkptDir   string
	CkptEvery int
	// IO selects the checkpoints' parallel-I/O options (redundancy,
	// retention, disk-fault injection).
	IO IOConfig
	// Recover resumes from the latest committed checkpoint in CkptDir
	// instead of the initial values: the recorded distributions are
	// replayed onto this run's P processors (shrunken if fewer survive)
	// and the loop restarts after the checkpointed iteration.
	Recover bool
	// OnlineRecover enables in-process failure recovery: when a rank
	// dies mid-run, the survivors Regroup onto the next membership
	// epoch, replay the last committed checkpoint from CkptDir (if any)
	// onto the shrunken processor view, and resume without leaving Run.
	// Requires a CkptDir and a CommTimeout.
	OnlineRecover bool
	// Integrity appends a CRC32C trailer to every wire message, turning
	// silent payload corruption into the named msg.ErrIntegrity
	// transport error.  Implied when Fault has a corrupt/bitflip rule.
	Integrity bool
	// Join reserves this many extra ranks beyond P; they park in
	// AwaitJoin (see machine.WithReserve) while the active members poll
	// for pending joiners at every iteration boundary at or after
	// JoinAfterIter (0 = from the first); on a hit they checkpoint, admit
	// the joiner into the next membership epoch, and replay onto the
	// grown view.  Requires a CommTimeout and a CkptDir.
	Join          int
	JoinAfterIter int
	// MemBudget bounds each rank's peak resident wire bytes during
	// redistributions (Engine.SetMemBudget), surviving every recovery
	// and expansion transition.  <= 0 means unbounded.
	MemBudget int64
	// Straggler configures the rank-health scorer, an optional injected
	// slow rank, and the mitigation policy (observe, rebalance the block
	// bounds by measured speed, or drain the straggler).
	Straggler StragglerConfig
}

// validate checks the prerequisites Recover, OnlineRecover, Join and the
// straggler policy need from the rest of the settings.
func (rt Runtime) validate() error {
	if rt.Recover && rt.CkptDir == "" {
		return errors.New("apps: Recover requires a CkptDir")
	}
	if rt.OnlineRecover && (rt.CkptDir == "" || rt.CommTimeout <= 0) {
		return errors.New("apps: OnlineRecover requires a CkptDir and a CommTimeout")
	}
	if rt.Join > 0 && (rt.CommTimeout <= 0 || rt.CkptDir == "") {
		return errors.New("apps: Join requires a CommTimeout (admissions run over the membership machinery) and a CkptDir")
	}
	if rt.Join > 0 && rt.Straggler.mitigating() {
		return errors.New("apps: Join does not combine with a mitigating straggler policy (a joiner's scorer starts empty)")
	}
	return rt.Straggler.validate(rt.CommTimeout, rt.CkptDir)
}

// Resilient is rt for a run that loses, admits or drains ranks: deadlines
// — timeout and two retries unless CommTimeout / CommRetries are already
// set — so that collectives a lost rank leaves in flight abort instead of
// hanging, and the membership machinery the timeout turns on.
func (rt Runtime) Resilient(timeout time.Duration) Runtime {
	if rt.CommTimeout == 0 {
		rt.CommTimeout = timeout
	}
	if rt.CommRetries == 0 {
		rt.CommRetries = 2
	}
	return rt
}

// savesAfter reports whether the step loop writes a checkpoint once done
// iterations have completed: the CkptEvery cadence.
func (rt Runtime) savesAfter(done int) bool {
	return rt.CkptDir != "" && done%max(rt.CkptEvery, 1) == 0
}

// flopTime is the modeled time of one flop, which the apps charge to the
// cost model for their compute.
const flopTime = 2e-9

// runConfig is what the step loop reads of an app's configuration.
type runConfig struct {
	P, Iters    int
	Alpha, Beta float64
	Runtime
}

// IOConfig selects the parallel-I/O options for an app's checkpoints:
// which redundancy mode protects each epoch's rank files, how many
// epochs to retain, and — for fault-injection runs — the filesystem and
// retry policy every checkpoint operation goes through.  The zero value
// keeps the ckpt defaults (parity redundancy, keep-all, the real
// filesystem).
type IOConfig = ckpt.Options

// Outcome is the part of a run's result the step loop produces; the
// three result types embed it.
type Outcome struct {
	Wall        time.Duration
	Msgs, Bytes int64
	ModelTime   float64 // modeled makespan in seconds (0 without model)
	// PeakWireBytes is the highest per-rank resident wire-buffer
	// residency any redistribution reached — the quantity MemBudget
	// bounds.
	PeakWireBytes int64
	// Survivors is the set of ranks not confirmed dead, populated (even
	// when the run errors) if a CommTimeout was set — the processor count
	// a recovery run should use.
	Survivors []int
	// ResumedIter is the checkpointed iteration (0-based) a Recover run,
	// or the last in-process replay, resumed after; -1 for a fresh start.
	ResumedIter int
	// Epochs counts the checkpoint epochs the CkptEvery cadence committed.
	Epochs int
	// FinalEpoch is the membership epoch the run completed on: 0 for a
	// run without a transition, >0 after online recovery, a join or a
	// drain.
	FinalEpoch int
	// DegradedRank is the first physical rank the health scorer of the
	// final view's rank 0 ever classified Degraded (-1: none, or scoring
	// off).
	DegradedRank int
	// Mitigation is the straggler mitigation that fired ("rebalance",
	// "drain", or empty).
	Mitigation string
	// Drained lists the physical ranks voluntarily drained from the
	// membership by the straggler policy.
	Drained []int
	// Health is the final per-rank report of the scorer of the final
	// view's rank 0 (nil with scoring off) — class, slowdown vs the
	// median, and observation count.
	Health []health.RankReport
}

// app is one processor's half of an application: the hooks the step
// loop calls, on every membership epoch, in the order
//
//	declare → fill | restore → Barrier → begin(it0, meta) → { step(it) → boundary }* → end
//
// The value is built once per processor, so state its closures share
// (weighted bounds installed by rebalance, say) outlives an epoch.
type app struct {
	// declare declares the arrays on the epoch's engine.
	declare func(eng *core.Engine) error
	// fill sets the initial values of a fresh start; a recovering run or
	// a replay restores the last committed checkpoint instead.
	fill func() error
	// begin runs once before iteration it0, the first not yet done; meta
	// is the restored checkpoint's (nil on a fresh start).
	begin func(it0 int, meta map[string]string) error
	// step advances the program by iteration it (0-based).
	step func(it int) error
	// rebalance re-divides the work in proportion to the measured
	// per-rank speeds; nil when the app's distributions cannot.
	rebalance func(speeds []float64) error
	// end runs after the last iteration: gather, validate, report.
	end func() error
	// save, when set, adds the app's own state to a checkpoint's meta.
	save func(meta map[string]string)

	// mitigated, health and observed are the loop's own: the straggler
	// policy fires once per run, not once per epoch (view rank 0's flag
	// gates the decision it hands every member), and the member's scorer
	// keeps its observations across epochs.
	mitigated bool
	health    *health.Scorer
	observed  int64
}

// NewMachine is the one place a machine is assembled: p processors (the
// cost model alpha/beta when either is non-zero), the transport stack —
// TCP loopback or in-process channels, wrapped in a fault injector (spec
// per msg.ParseFaultPlan) and then, outermost so that injected corruption
// is caught, in the CRC32C integrity layer, which any corrupt/bitflip
// fault rule implies — carrying the cost model and the tracer, then the
// retry policy (whose timeout turns the membership machinery on) and the
// reserved join slots.  Every structure indexed by physical rank is sized
// to the capacity p+rt.Join.
func NewMachine(p int, alpha, beta float64, rt Runtime) (*machine.Machine, error) {
	if err := rt.validate(); err != nil {
		return nil, err
	}
	total := p + rt.Join
	var topts []msg.Option
	if alpha != 0 || beta != 0 {
		topts = append(topts, msg.WithCost(msg.NewCostModel(total, alpha, beta)))
	}
	if rt.Tracer != nil {
		topts = append(topts, msg.WithTracer(rt.Tracer))
	}
	var plan *msg.FaultPlan
	integrity := rt.Integrity
	if rt.Fault != "" {
		var err error
		if plan, err = msg.ParseFaultPlan(rt.Fault); err != nil {
			return nil, err
		}
		integrity = integrity || plan.HasKind(msg.FaultCorrupt)
	}
	var tr msg.Transport = msg.NewChanTransport(total, topts...)
	if rt.UseTCP {
		tcp, err := msg.NewTCPTransport(total, topts...)
		if err != nil {
			return nil, err
		}
		tr = tcp
	}
	if plan != nil {
		tr = msg.NewFaultTransport(tr, plan)
	}
	if integrity {
		tr = msg.NewIntegrityTransport(tr)
	}
	return machine.New(p,
		machine.WithTransport(tr),
		machine.WithRetry(msg.RetryPolicy{Timeout: rt.CommTimeout, Retries: rt.CommRetries}),
		machine.WithReserve(rt.Join)), nil
}

// run executes an application under the resilient step loop and fills
// out.  mk builds one processor's hooks; it runs once per processor,
// inside Machine.Run.
func run(rc runConfig, out *Outcome, mk func(ctx *machine.Ctx) app) error {
	*out = Outcome{ResumedIter: -1, DegradedRank: -1}
	m, err := NewMachine(rc.P, rc.Alpha, rc.Beta, rc.Runtime)
	if err != nil {
		return err
	}
	defer m.Close()
	eng := core.NewEngine(m)
	eng.SetMemBudget(rc.MemBudget)
	eng.SetCkptOptions(rc.IO)
	start := time.Now()
	err = m.Run(func(ctx *machine.Ctx) error {
		a := mk(ctx)
		if rc.Straggler.Enabled() {
			a.health = health.New(m.Capacity(), rc.Straggler.healthConfig())
		}
		return core.RunEpochs(ctx, eng, rc.OnlineRecover, func(eng *core.Engine, replay bool) error {
			return rc.epoch(ctx, eng, replay, &a, out)
		})
	})
	out.Survivors = m.Survivors()
	if err != nil {
		return err
	}
	out.Wall = time.Since(start)
	sn := m.Stats().Snapshot()
	out.Msgs, out.Bytes = sn.TotalDataMsgs(), sn.TotalBytes()
	out.PeakWireBytes = m.Stats().PeakWireBytes()
	if cm := m.Cost(); cm != nil {
		out.ModelTime = cm.Makespan()
	}
	return nil
}

// testHookStep, set by kill tests, runs on every rank before each
// iteration (iterStarts in recovery_test.go).
var testHookStep func(ctx *machine.Ctx, it int)

// epoch is one membership epoch of a run, the body core.RunEpochs
// re-enters after every transition: declare, restore or fill, then
// iterate.  At each iteration boundary it issues, in this order and
// only when configured: the CkptEvery checkpoint; the elastic PollJoin
// (one allreduce) and, on a pending joiner, a checkpoint and core.Grow;
// the health observation (one allgather) and, until a mitigation has
// fired, view rank 0's straggler decision it carries: the app's rebalance or a
// checkpoint and a drain request.  A run with none of these configured
// adds no collective to the app's own.
func (rc runConfig) epoch(ctx *machine.Ctx, eng *core.Engine, replay bool, a *app, out *Outcome) error {
	if err := a.declare(eng); err != nil {
		return err
	}
	// Replay the last committed checkpoint — values and distribution
	// descriptors — onto this (possibly smaller or larger) view and
	// resume after the checkpointed iteration.
	var man *ckpt.Manifest
	var err error
	switch {
	case replay:
		man, err = eng.Recover(ctx, rc.CkptDir)
	case rc.Recover:
		man, err = eng.Restore(ctx, rc.CkptDir)
	}
	it0, restored := 0, map[string]string(nil)
	switch {
	case man != nil:
		if it, ok := man.MetaInt("iter"); ok {
			it0 = it + 1
		}
		if ctx.Rank() == 0 {
			out.ResumedIter = it0 - 1
		}
		restored = man.Meta
	case err == nil, replay && errors.Is(err, ckpt.ErrNoEpoch):
		// A fresh start, or a replay lost before the first commit (every
		// rank learns that from one broadcast).
		err = a.fill()
	}
	if err != nil {
		return err
	}
	if err := ctx.Barrier(); err != nil {
		return err
	}
	if err := a.begin(it0, restored); err != nil {
		return err
	}
	save := func(it int) error {
		meta := map[string]string{"iter": strconv.Itoa(it)}
		if a.save != nil {
			a.save(meta)
		}
		_, err := eng.Checkpoint(ctx, rc.CkptDir, meta)
		return err
	}
	sc := rc.Straggler
	for it := it0; it < rc.Iters; it++ {
		if testHookStep != nil {
			testHookStep(ctx, it)
		}
		if err := a.step(it); err != nil {
			return err
		}
		done := it + 1
		if rc.savesAfter(done) {
			if err := save(it); err != nil {
				return err
			}
			if ctx.Rank() == 0 {
				out.Epochs++
			}
		}
		// Elastic scale-out: every member takes the same agreed poll; on a
		// pending joiner they checkpoint here and leave so that RunEpochs
		// admits it and the replay lands on the grown view.
		if rc.Join > 0 && done >= rc.JoinAfterIter && done < rc.Iters {
			grow, err := ctx.PollJoin()
			if err != nil {
				return err
			}
			if grow {
				if err := save(it); err != nil {
					return err
				}
				return core.Grow
			}
		}
		// Straggler defense: one health collective per boundary, which
		// carries view rank 0's decision to every member once the scorer
		// has had a chance to classify.
		if a.health == nil {
			continue
		}
		a.observed++
		decide := sc.mitigating() && !a.mitigated && done >= sc.checkAfter() && done < rc.Iters
		dec, view, speeds, err := observeHealth(ctx, sc, a.health, a.observed, decide)
		if err != nil {
			return err
		}
		switch dec {
		case health.Rebalance:
			if err := a.rebalance(speeds); err != nil {
				return err
			}
			a.mitigated = true
			if ctx.Rank() == 0 {
				out.Mitigation = "rebalance"
			}
		case health.Drain:
			a.mitigated = true
			if err := save(it); err != nil {
				return err
			}
			if ctx.Rank() == 0 {
				out.Mitigation = "drain"
				out.Drained = append(out.Drained, ctx.PhysOf(view))
			}
			return &core.Resize{Drain: view}
		}
	}
	if err := a.end(); err != nil {
		return err
	}
	if ctx.Rank() == 0 {
		out.FinalEpoch = ctx.Epoch()
		if a.health != nil {
			ranks := make([]int, ctx.Machine().Capacity())
			for i := range ranks {
				ranks[i] = i
			}
			out.Health = a.health.Report(ranks)
			for _, rr := range out.Health {
				if rr.EverDegraded {
					out.DegradedRank = rr.Rank
					break
				}
			}
		}
	}
	return nil
}

// tally is one kind of an app's traffic, [data messages, bytes] per
// physical rank (capacity P+Join): a rank adds what it sent during its own
// phases to its own slot (msg.Stats.Sent), so no rank waits for another
// to read a counter.  Read the slots after Machine.Run has returned.
type tally [][2]int64

// count runs phase and adds what ctx's rank sent during it to its slot.
func (t tally) count(ctx *machine.Ctx, phase func() error) error {
	st, r := ctx.Machine().Stats(), ctx.PhysRank()
	m0, b0 := st.Sent(r)
	if err := phase(); err != nil {
		return err
	}
	m1, b1 := st.Sent(r)
	t[r][0] += m1 - m0
	t[r][1] += b1 - b0
	return nil
}

// sum is the traffic of all ranks together.
func (t tally) sum() (msgs, bytes int64) {
	for _, s := range t {
		msgs, bytes = msgs+s[0], bytes+s[1]
	}
	return msgs, bytes
}

// most is the largest message count and the largest byte count any one
// rank sent.
func (t tally) most() (msgs, bytes int64) {
	for _, s := range t {
		msgs, bytes = max(msgs, s[0]), max(bytes, s[1])
	}
	return msgs, bytes
}

// checksum reduces the final grid of v: with a serial reference, rank 0
// gathers the grid and also reports the largest deviation from it;
// without, the sum comes from one allreduce.  Both values are
// meaningful on rank 0 only.
func checksum(ctx *machine.Ctx, v *core.Array, ref []float64) (sum, maxErr float64, err error) {
	if ref == nil {
		sum, err = v.DArray().ReduceSum(ctx)
		return sum, 0, err
	}
	got, err := v.GatherTo(ctx, 0)
	if err != nil || ctx.Rank() != 0 {
		return 0, 0, err
	}
	for i, x := range got {
		sum += x
		maxErr = max(maxErr, x-ref[i], ref[i]-x)
	}
	return sum, maxErr, nil
}
