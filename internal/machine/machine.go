// Package machine provides the SPMD execution engine of the Vienna Fortran
// Engine: P logical processors executing the same program on local data
// (paper §1: "each processor executes essentially the same code, but on a
// local data set").
//
// A Machine owns a msg.Transport connecting P processors.  Run executes an
// SPMD body as P goroutines, each with a Ctx carrying its rank and
// collectives.  Processor arrays (PROCESSORS R(1:M,1:M), §2.2) and
// processor sections are declared per machine and serve as distribution
// targets.
//
// Collective object creation: global objects such as distributed arrays
// must be logically identical on every processor.  Ctx.CollectiveOnce
// assigns each textual creation site a sequence number (identical across
// processors because the program is SPMD) and has exactly one processor
// run the constructor; all processors share the result.  This mirrors the
// descriptor replication of the VFE (§3.2.1).
package machine

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msg"
	"repro/internal/trace"
)

// Machine is a set of P logical processors sharing a transport, plus an
// optional pool of reserved processors that may join a running epoch
// (WithReserve).
type Machine struct {
	np        int // total physical ranks: base + reserved
	base      int // initially active ranks (epoch 0 membership)
	transport msg.Transport
	retry     msg.RetryPolicy
	dead      *deadSet // confirmed deaths; nil without a retry Timeout
	joins     *joinReg
	drains    *joinReg       // registered voluntary-drain candidates
	probes    sync.WaitGroup // the probe responders (liveness.go)
	probeSeq  atomic.Uint64  // the last probe's sequence number
	// exits[r] is closed when rank r's goroutine of the current Run
	// returns; Regroup waits on the dead members' channels before
	// installing a compacted view, so a survivor that takes over a dead
	// rank's compacted slot has a happens-before edge on everything the
	// dead rank's goroutine wrote.
	exits []chan struct{}
	// run is the engagement state of the current Run: which ranks count
	// toward run completion, and the signal that tells never-admitted
	// reserved ranks to give up.  Written once before the goroutines
	// spawn.
	run *runState

	mu      sync.Mutex
	objects map[int64]*collEntry
	procs   map[string]*ProcArray
}

// runState tracks which ranks of the current Run are "engaged" — their
// goroutine's return is required before the run is over.  The base ranks
// are engaged from the start; a reserved rank becomes engaged the moment
// a survivor admits it into an epoch.  When the last engaged rank
// returns, stop closes and the reserved ranks still parked in AwaitJoin
// unwind with ErrNeverJoined.
type runState struct {
	engaged []atomic.Bool
	wg      sync.WaitGroup
	stop    chan struct{}
}

// engage marks rank r as required for run completion.  Only called from
// a rank that is itself engaged and still running, so the WaitGroup
// counter cannot be concurrently drained to zero.
func (rs *runState) engage(r int) {
	if rs.engaged[r].CompareAndSwap(false, true) {
		rs.wg.Add(1)
	}
}

type collEntry struct {
	once sync.Once
	val  any
}

// Option configures a Machine.
type Option func(*config)

type config struct {
	transport msg.Transport
	cost      *msg.CostModel
	tracer    *trace.Tracer
	retry     msg.RetryPolicy
	reserve   int
}

// WithTransport runs the machine on the given transport (e.g. a
// msg.TCPTransport).  The transport's NP must match the machine's.
func WithTransport(t msg.Transport) Option {
	return func(c *config) { c.transport = t }
}

// WithCostModel attaches a Hockney cost model to the default transport.
// Ignored if WithTransport is also given (attach the model to that
// transport instead).
func WithCostModel(cm *msg.CostModel) Option {
	return func(c *config) { c.cost = cm }
}

// WithTrace attaches an event tracer to the default transport so every
// message, collective, redistribution, and user phase is recorded.
// Ignored if WithTransport is also given (attach the tracer to that
// transport with msg.WithTracer instead).  A nil tracer is a no-op.
func WithTrace(tr *trace.Tracer) Option {
	return func(c *config) { c.tracer = tr }
}

// WithRetry installs a retry policy on every processor's collectives
// (see msg.RetryPolicy).  The zero policy blocks forever, the historical
// behaviour.  A policy with a Timeout also turns the membership machinery
// on: epoch views, the dead set its missed deadlines feed, and the probe
// responders (see liveness.go).
func WithRetry(pol msg.RetryPolicy) Option {
	return func(c *config) { c.retry = pol }
}

// WithReserve provisions extra transport slots for processors that may
// join the running machine: the transport (and dead set) are sized
// base+extra, the reserved ranks run the SPMD body with
// Ctx.Reserved() == true and park in Ctx.AwaitJoin until the active
// membership admits them into an epoch (Ctx.Admit, or a Regroup that
// finds them pending).  Requires a retry Timeout — the same machinery a
// Regroup needs.
func WithReserve(extra int) Option {
	return func(c *config) { c.reserve = extra }
}

// New creates a machine with np logical processors on an in-process
// transport (unless overridden by WithTransport).  With WithReserve(k)
// the transport carries np+k endpoints; the extra ranks are inactive
// until admitted by a join transition.
func New(np int, opts ...Option) *Machine {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.reserve < 0 {
		panic(fmt.Sprintf("machine: negative reserve %d", cfg.reserve))
	}
	if cfg.reserve > 0 && cfg.retry.Timeout <= 0 {
		panic("machine: WithReserve requires a retry Timeout (join transitions run over the membership machinery)")
	}
	total := np + cfg.reserve
	tr := cfg.transport
	if tr == nil {
		var topts []msg.Option
		if cfg.cost != nil {
			topts = append(topts, msg.WithCost(cfg.cost))
		}
		if cfg.tracer != nil {
			topts = append(topts, msg.WithTracer(cfg.tracer))
		}
		tr = msg.NewChanTransport(total, topts...)
	}
	if tr.NP() != total {
		panic(fmt.Sprintf("machine: transport has %d endpoints, machine wants %d (%d active + %d reserved)", tr.NP(), total, np, cfg.reserve))
	}
	// Timestamp events with the cost model's virtual clock as well as wall
	// time, so summaries can report α/β seconds per phase.
	if t, c := tr.Tracer(), tr.Cost(); t != nil && c != nil {
		t.SetClockSource(c.Clock)
	}
	m := &Machine{
		np:        total,
		base:      np,
		transport: tr,
		retry:     cfg.retry,
		objects:   make(map[int64]*collEntry),
		procs:     make(map[string]*ProcArray),
	}
	if m.retry.Timeout > 0 {
		m.dead = &deadSet{dead: make([]bool, total)}
		m.joins = newJoinReg()
		m.drains = newJoinReg()
		m.startResponders()
	}
	return m
}

// NP returns the number of initially active processors (the paper's $NP
// intrinsic; the epoch-0 membership).  Reserved join slots are not
// counted — see Capacity.
func (m *Machine) NP() int { return m.base }

// Capacity returns the total number of physical ranks the machine's
// transport carries: the initially active processors plus any reserved
// join slots (WithReserve).
func (m *Machine) Capacity() int { return m.np }

// Transport returns the underlying transport.
func (m *Machine) Transport() msg.Transport { return m.transport }

// Stats returns the transport's traffic statistics.
func (m *Machine) Stats() *msg.Stats { return m.transport.Stats() }

// Cost returns the attached cost model, or nil.
func (m *Machine) Cost() *msg.CostModel { return m.transport.Cost() }

// Tracer returns the attached event tracer, or nil.
func (m *Machine) Tracer() *trace.Tracer { return m.transport.Tracer() }

// Close shuts down the transport and waits for the probe responders,
// which it stops, to exit.
func (m *Machine) Close() error {
	err := m.transport.Close()
	m.probes.Wait()
	return err
}

// Run executes body as an SPMD program: one goroutine per processor, each
// receiving its own Ctx.  Panics in the body are recovered and reported as
// errors with stack traces; like an MPI abort, a rank that panics or
// returns an error shuts the transport down so ranks blocked in
// collectives unwind instead of deadlocking (the machine is unusable
// afterwards).  Run prefers the originating failure — a panic or error
// that is not itself a secondary ErrClosed consequence of the abort — and
// its report names the failing rank.
func (m *Machine) Run(body func(ctx *Ctx) error) error {
	var wg sync.WaitGroup
	errs := make([]error, m.np)
	panicked := make([]bool, m.np)
	excluded := make([]bool, m.np)
	exits := make([]chan struct{}, m.np)
	for r := range exits {
		exits[r] = make(chan struct{})
	}
	m.exits = exits
	// Engagement state: the run is over when every *engaged* rank has
	// returned — the base ranks from the start, reserved ranks once
	// admitted.  The watcher then tells never-admitted reserved ranks to
	// stop waiting.
	rs := &runState{engaged: make([]atomic.Bool, m.np), stop: make(chan struct{})}
	for r := 0; r < m.base; r++ {
		rs.engaged[r].Store(true)
		rs.wg.Add(1)
	}
	m.run = rs
	go func() {
		rs.wg.Wait()
		close(rs.stop)
	}()
	for r := 0; r < m.np; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer close(exits[r])
			defer func() {
				// An admitted joiner's exit counts toward run completion;
				// engagement happens-before the welcome message, which
				// happens-before AwaitJoin returns, so the load is ordered.
				if rs.engaged[r].Load() {
					rs.wg.Done()
				}
			}()
			defer func() {
				if rec := recover(); rec != nil {
					errs[r] = fmt.Errorf("machine: rank %d panicked: %v\n%s", r, rec, debug.Stack())
					panicked[r] = true
					m.transport.Close()
				}
			}()
			ctx := m.newCtx(r)
			if err := body(ctx); err != nil {
				errs[r] = fmt.Errorf("machine: rank %d: %w", r, err)
				if errors.Is(err, ErrExcluded) {
					// A rank voted out of the surviving membership is a
					// casualty the regrouped run expects: it exits
					// without tearing the transport down under the
					// survivors.
					excluded[r] = true
					return
				}
				m.transport.Close()
			}
		}(r)
	}
	wg.Wait()
	pick := func(wantPanic, wantClosed bool) error {
		for r, err := range errs {
			if err != nil && !excluded[r] && panicked[r] == wantPanic && isClosedErr(err) == wantClosed {
				return err
			}
		}
		return nil
	}
	for _, err := range []error{
		pick(true, false),  // originating panic
		pick(false, false), // originating body error
		pick(true, true),   // secondary: panic induced by the abort
		pick(false, true),  // secondary: error induced by the abort
	} {
		if err != nil {
			return err
		}
	}
	// Exclusions alone don't fail the run — unless nobody survived to
	// finish it.
	for _, err := range errs {
		if err == nil {
			return nil
		}
	}
	return fmt.Errorf("machine: every rank excluded: %w", errs[0])
}

// isClosedErr reports whether err is (or textually embeds, for recovered
// panics) the transport-closed failure an SPMD abort induces on the
// surviving ranks.
func isClosedErr(err error) bool {
	return errors.Is(err, msg.ErrClosed) || strings.Contains(err.Error(), ErrClosedText)
}

// ErrClosedText is the marker of secondary failures induced by an SPMD
// abort (matching msg.ErrClosed's message).
const ErrClosedText = "transport closed"

// Ctx is one processor's view of the machine during an SPMD run.  With
// a retry Timeout the view is epoch-scoped: after a successful Regroup
// the Ctx is renumbered into the compacted survivor set, its collectives
// run over an epoch-tagged msg.View, and Rank/NP answer in view
// coordinates (epoch 0 is the identity view over all np processors).
type Ctx struct {
	rank     int // view rank (== physical rank until a regroup)
	m        *Machine
	comm     *msg.Comm
	collSeq  int64
	epoch    int
	phys     []int // view rank -> physical rank; nil without a retry Timeout
	reserved bool  // a join slot not yet admitted into any epoch
	// units and busy are this rank's cumulative ReportWork counters.
	units float64
	busy  time.Duration
}

func (m *Machine) newCtx(rank int) *Ctx {
	c := &Ctx{rank: rank, m: m}
	ep := m.transport.Endpoint(rank)
	if rank >= m.base {
		// A reserved join slot: no epoch membership yet.  The rank field
		// holds the physical rank; collectives are meaningless until
		// AwaitJoin installs the first admitted view.
		c.reserved = true
		c.comm = msg.NewComm(ep)
		c.comm.SetRetry(m.retry)
		return c
	}
	if m.dead != nil {
		// Epoch 0 identity view over the active ranks: rank numbering and
		// tags are unchanged, but collectives gain the liveness check — an
		// in-flight operation aborts with ErrEpochRevoked as soon as a
		// member is confirmed dead, instead of timing out peer by peer.
		phys := make([]int, m.base)
		for i := range phys {
			phys[i] = i
		}
		c.phys = phys
		c.comm = m.epochComm(rank, 0, phys)
		return c
	}
	c.comm = msg.NewComm(ep)
	c.comm.SetRetry(m.retry)
	return c
}

// Rank returns this processor's rank in 0..NP-1 of the current
// membership epoch.
func (c *Ctx) Rank() int { return c.rank }

// NP returns the number of processors ($NP) of the current membership
// epoch.
func (c *Ctx) NP() int {
	if c.phys != nil {
		return len(c.phys)
	}
	return c.m.base
}

// Epoch returns the current membership epoch (0 until a regroup or
// join).
func (c *Ctx) Epoch() int { return c.epoch }

// Reserved reports whether this processor is an unadmitted join slot
// (WithReserve): it has no epoch membership and must call AwaitJoin
// before touching collectives.
func (c *Ctx) Reserved() bool { return c.reserved }

// PhysRank returns this processor's physical rank — the transport
// endpoint, trace timeline, per-rank statistics, and cost-model slot,
// all of which survive view renumbering across regroups and joins.
// Per-physical-rank gauges (e.g. msg.Stats wire residency) must be
// indexed with this, never with the view Rank.
func (c *Ctx) PhysRank() int {
	if c.phys != nil {
		return c.phys[c.rank]
	}
	return c.rank
}

// PhysOf translates a view rank of the current epoch to its physical
// rank (identity without a retry Timeout).
func (c *Ctx) PhysOf(viewRank int) int {
	if c.phys != nil {
		return c.phys[viewRank]
	}
	return viewRank
}

// Machine returns the owning machine.
func (c *Ctx) Machine() *Machine { return c.m }

// Comm returns this processor's collectives handle.
func (c *Ctx) Comm() *msg.Comm { return c.comm }

// Endpoint returns this processor's point-to-point endpoint.
func (c *Ctx) Endpoint() msg.Endpoint { return c.comm.Endpoint() }

// Barrier synchronizes all processors.  A transport failure is returned
// (wrapped, naming the rank) rather than panicking, so the SPMD driver can
// exit cleanly with the failing rank.
func (c *Ctx) Barrier() error {
	return c.comm.Barrier()
}

// CollectiveOnce runs create on exactly one processor per textual call
// site and returns the shared result on every processor.  All processors
// must call it in the same order (SPMD discipline); the sequence number
// pairs the calls.  The call does not synchronize beyond the constructor
// itself — follow with Barrier when the object must be fully visible
// before unrelated communication.
func (c *Ctx) CollectiveOnce(create func() any) any {
	defer c.Tracer().BeginSpan(c.PhysRank(), trace.CatCollective, "collective-once").End()
	c.collSeq++
	// The epoch is folded into the pairing key: after a regroup the
	// survivors restart the sequence at 0 in the new epoch, so their
	// post-recovery call sites can never pair with (and wrongly adopt)
	// objects created before the membership change.
	id := c.collSeq | int64(c.epoch)<<40
	c.m.mu.Lock()
	e, ok := c.m.objects[id]
	if !ok {
		e = &collEntry{}
		c.m.objects[id] = e
	}
	c.m.mu.Unlock()
	e.once.Do(func() { e.val = create() })
	return e.val
}

// Charge adds modeled local-computation time to this processor's virtual
// clock (no-op without a cost model).
func (c *Ctx) Charge(seconds float64) {
	if cm := c.m.Cost(); cm != nil {
		cm.Charge(c.PhysRank(), seconds)
	}
}

// Tracer returns the machine's event tracer, or nil.
func (c *Ctx) Tracer() *trace.Tracer { return c.m.Tracer() }

// PhaseBegin opens a named user phase on this processor's trace
// timeline.  Phases may nest; messages and barrier waits are charged to
// the innermost open phase-like span in the summary.  No-op without a
// tracer.
func (c *Ctx) PhaseBegin(name string) {
	c.Tracer().BeginSpan(c.PhysRank(), trace.CatPhase, name)
}

// PhaseEnd closes the named user phase opened by PhaseBegin.
func (c *Ctx) PhaseEnd(name string) {
	c.Tracer().EndSpan(c.PhysRank(), trace.CatPhase, name)
}

// ReportWork adds one completed batch of application work to this rank's
// cumulative counters: units is the amount of work (iterations, rows,
// particles — any per-rank-comparable measure) and busy the computation
// time it took.  Report compute time, not barrier waits: the contrast
// between a straggler's cost-per-unit and the median is the signal.  The
// counters stay with the rank; a health scorer reads them through Work.
func (c *Ctx) ReportWork(units float64, busy time.Duration) {
	c.units += units
	c.busy += busy
}

// Work returns this rank's cumulative ReportWork counters.
func (c *Ctx) Work() (units float64, busy time.Duration) { return c.units, c.busy }
