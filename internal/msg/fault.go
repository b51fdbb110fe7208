package msg

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"repro/internal/fault"
	"repro/internal/trace"
)

// ErrInjected is the error produced by injected send/recv faults.  An
// injected send error delivers nothing (the frame never left), so the
// operation is safe to retry.
var ErrInjected = errors.New("msg: injected fault")

// FaultKind selects what a FaultRule does when it fires.
type FaultKind int

// Fault kinds.
const (
	// FaultSendErr makes Send return ErrInjected without delivering the
	// frame (a failed socket write: retrying resends the data).
	FaultSendErr FaultKind = iota
	// FaultRecvErr makes Recv/RecvTimeout return ErrInjected without
	// consuming anything from the mailbox (a failed socket read: the
	// message is still there on retry).
	FaultRecvErr
	// FaultRecvDelay delays delivery of a sent frame by Delay (a slow
	// link: the receiver's deadline fires, and a retried receive with an
	// escalated deadline eventually sees the frame).
	FaultRecvDelay
	// FaultDrop silently discards a sent frame (a lost packet: no retry
	// of the receive can ever see it; only a deadline unblocks the
	// receiver).
	FaultDrop
	// FaultCorrupt flips one payload bit of a sent frame (wire
	// corruption: undetectable to the transport itself; an
	// IntegrityTransport layered outside the fault injector catches it
	// at the receive as ErrIntegrity).  Zero-length frames pass through
	// untouched.  The plan syntax accepts "corrupt" and "bitflip".
	FaultCorrupt
	// FaultSlow makes the matching endpoint a straggler: every matching
	// send and every matching receive attempt sleeps Delay×Factor before
	// the operation proceeds (the operation itself then succeeds
	// normally).  Unlike FaultRecvDelay — a one-shot schedule on frame
	// *delivery* — a slow rule is persistent by default (Count=0) and
	// charges the latency to the slowed endpoint itself, so a single
	// overloaded rank inflates every barrier it participates in exactly
	// as a real straggler would.  Combines with After/Count/Every/Prob
	// (the seeded per-rank RNG makes probabilistic slowdowns replayable)
	// and with Arm/Disarm like every other kind.
	FaultSlow
)

// faultKinds is the wire half of the plan grammar; the row order is the
// FaultKind numbering.
var faultKinds = fault.Kinds{
	FaultSendErr:   {Name: "senderr"},
	FaultRecvErr:   {Name: "recverr"},
	FaultRecvDelay: {Name: "delay", NeedDelay: true},
	FaultDrop:      {Name: "drop"},
	FaultCorrupt:   {Name: "corrupt", Alias: "bitflip"},
	FaultSlow:      {Name: "slow", NeedDelay: true},
}

func (k FaultKind) String() string { return faultKinds.Name(int(k)) }

// FaultKinds returns the plan syntax's kind names as "a|b|c", for help
// texts.
func FaultKinds() string { return faultKinds.List() }

// FaultRule describes one deterministic fault schedule.  A rule watches the
// matching operations of one endpoint (sends for FaultSendErr /
// FaultRecvDelay / FaultDrop / FaultCorrupt, receives for FaultRecvErr,
// both for FaultSlow) and fires on a subset of them.  Matching operations are counted per endpoint, so a
// schedule is deterministic for a deterministic program regardless of how
// ranks interleave.
type FaultRule struct {
	Kind FaultKind
	// Rank restricts the rule to one endpoint's operations (-1 = all).
	Rank int
	// Peer restricts by the remote rank: the destination for send-side
	// kinds, the requested source for FaultRecvErr (-1 = any; a receive
	// from AnySource matches any Peer).
	Peer int
	// After, Count, Every and Prob select which of the matching
	// operations fire; they are fault.Window's fields, documented there
	// (Count 0 = every match after After, a persistent fault).
	After, Count, Every int
	Prob                float64
	// Delay is the injected latency for FaultRecvDelay, and the base
	// per-operation latency for FaultSlow.
	Delay time.Duration
	// Factor multiplies Delay for FaultSlow (<= 0 is treated as 1), so a
	// straggler plan reads as "base latency × slowdown": slow,rank=2,
	// delay=100us,factor=8 costs rank 2 800µs per matching operation.
	Factor float64
	// Win restricts the rule to one-sided window traffic (put/get tags in
	// the RMA tag space), leaving collectives and point-to-point sends
	// unaffected.  Plan syntax: win=1.
	Win bool
}

// FaultPlan is a set of fault rules plus the RNG seed for probabilistic
// rules.  The per-rank RNG streams are derived from Seed+rank, so a plan
// replays identically for a deterministic program.
type FaultPlan struct {
	Seed  int64
	Rules []FaultRule
	// StartDisarmed builds the transport with injection switched off on
	// every rank; tests call FaultTransport.Arm(rank) at a point where the
	// rank's subsequent traffic is exactly the phase under test, keeping
	// the per-rank operation counts deterministic.
	StartDisarmed bool
}

// HasKind reports whether any rule of the plan is of kind k.  Callers
// use it to auto-enable the integrity layer when a plan injects
// corruption.
func (p *FaultPlan) HasKind(k FaultKind) bool {
	for _, r := range p.Rules {
		if r.Kind == k {
			return true
		}
	}
	return false
}

// ParseFaultPlan parses the -fault flag syntax: semicolon-separated rules,
// each a kind followed by comma-separated key=value options, e.g.
//
//	senderr,rank=1,after=3,count=2;drop,peer=2,count=1;delay,delay=20ms,every=5
//
// Kinds: senderr, recverr, delay, drop, corrupt (or bitflip), slow.
// Options: the common rank, after, count, every, prob and delay (a Go
// duration), plus peer, factor (the FaultSlow multiplier) and win.  A
// bare "seed=N" segment sets the plan seed for prob rules.  fault.Parse
// has the grammar and the value ranges.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	plan := &FaultPlan{}
	var err error
	plan.Seed, err = fault.Parse(spec, "msg", faultKinds, func(kind int) fault.Fields {
		plan.Rules = append(plan.Rules, FaultRule{Kind: FaultKind(kind), Rank: -1, Peer: -1})
		r := &plan.Rules[len(plan.Rules)-1]
		return fault.Fields{Rank: &r.Rank, After: &r.After, Count: &r.Count, Every: &r.Every,
			Prob: &r.Prob, Delay: &r.Delay, Set: r.setOption}
	})
	if err != nil {
		return nil, err
	}
	return plan, nil
}

// setOption stores one of the wire-only plan options.
func (r *FaultRule) setOption(k, v string) (ok bool, err error) {
	switch k {
	case "peer":
		r.Peer, err = fault.Int(v, -1)
	case "factor":
		r.Factor, err = fault.Float(v, 0, math.Inf(1))
	case "win":
		var n int
		n, err = strconv.Atoi(v)
		r.Win = n != 0
	default:
		return false, nil
	}
	return true, err
}

// FaultTransport decorates any Transport with deterministic fault
// injection.  Faults are injected on the sender side of the wrapped
// transport (where both the channel and TCP transports still share one
// code path), which keeps schedules independent of receiver timing:
//
//   - FaultSendErr: Send returns ErrInjected, nothing is delivered.
//   - FaultRecvDelay: the frame is delivered Delay later from a helper
//     goroutine (the payload is copied first, preserving the Send
//     buffer-reuse contract).
//   - FaultDrop: Send returns nil but the frame is never delivered; the
//     inner transport's Stats never see it.
//   - FaultRecvErr: injected on the receive side; the mailbox is not
//     consulted, so the message (if any) survives for the retry.
//
// Its endpoints do not report SharedMemory(), even over the chan
// transport: a Window's offers then travel framed through this layer, so
// a rule reaches every payload byte a DISTRIBUTE moves.
//
// Everything but the endpoints is the wrapped transport's: its Stats
// never see a dropped frame or a failed injected send.
type FaultTransport struct {
	Transport
	eps []faultEndpoint
}

// NewFaultTransport wraps inner with the plan's fault rules.
func NewFaultTransport(inner Transport, plan *FaultPlan) *FaultTransport {
	t := &FaultTransport{Transport: inner, eps: make([]faultEndpoint, inner.NP())}
	for r := range t.eps {
		t.eps[r] = faultEndpoint{
			inner: inner.Endpoint(r),
			inj:   fault.NewInjector(plan.Seed, r, !plan.StartDisarmed, plan.Rules, (*FaultRule).window),
		}
	}
	return t
}

// Endpoint returns rank's fault-injecting endpoint.
func (t *FaultTransport) Endpoint(rank int) Endpoint { return &t.eps[rank] }

// Arm enables injection on rank's endpoint.  For plans built with
// StartDisarmed, a test arms each rank at a point where that rank's next
// matching operation is the first of the phase under test.
func (t *FaultTransport) Arm(rank int) { t.eps[rank].inj.SetArmed(true) }

// Disarm disables injection on rank's endpoint.
func (t *FaultTransport) Disarm(rank int) { t.eps[rank].inj.SetArmed(false) }

type faultEndpoint struct {
	inner Endpoint
	inj   *fault.Injector[FaultRule]
}

// wrapped is the facet Wire unwraps.
func (e *faultEndpoint) wrapped() Endpoint { return e.inner }

func (e *faultEndpoint) Rank() int { return e.inner.Rank() }
func (e *faultEndpoint) NP() int   { return e.inner.NP() }

func (e *faultEndpoint) Tracer() *trace.Tracer { return e.inner.Tracer() }

// isWinTag reports whether a wire tag belongs to the one-sided window
// tag space (after stripping any folded membership epoch).
func isWinTag(tag int) bool {
	if tag < 0 {
		return false
	}
	t := UnfoldTag(tag)
	return t >= TagRMABase && t < TagCollBase
}

func (r *FaultRule) window() fault.Window {
	return fault.Window{After: r.After, Count: r.Count, Every: r.Every, Prob: r.Prob}
}

// fire runs one operation with the given peer and tag past the schedule
// and returns the first rule of the given kinds that fires on it.  Every
// operation counts, a membership probe's included (a fault-free run sends
// none).
func (e *faultEndpoint) fire(peer, tag int, kinds ...FaultKind) *FaultRule {
	return e.inj.Fire(func(r *FaultRule) bool {
		return slices.Contains(kinds, r.Kind) &&
			(r.Rank < 0 || r.Rank == e.inner.Rank()) &&
			(r.Peer < 0 || peer == AnySource || r.Peer == peer) &&
			(!r.Win || isWinTag(tag))
	})
}

// slowDur is the per-operation latency a fired FaultSlow rule charges.
func (r *FaultRule) slowDur() time.Duration {
	f := r.Factor
	if f <= 0 {
		f = 1
	}
	return time.Duration(float64(r.Delay) * f)
}

// stall consults the slow rules separately from the error-injecting
// kinds — a straggler endpoint still suffers every other scheduled
// fault on top of its latency — and sleeps the fired rule's Delay×Factor.
func (e *faultEndpoint) stall(peer, tag int) {
	if r := e.fire(peer, tag, FaultSlow); r != nil {
		time.Sleep(r.slowDur())
	}
}

func (e *faultEndpoint) Send(to, tag int, data []byte) error {
	return e.sendGather(to, tag, gather{one: data})
}

// sendGather implements gatherSender: it runs the send past the slow
// rules and the send-side schedule.  A send no rule fires on goes down in
// pieces as it came; one a rule fires on is joined first, so the injected
// fault lands on the bytes a plain Send of the frame would carry.
func (e *faultEndpoint) sendGather(to, tag int, g gather) error {
	e.stall(to, tag)
	if r := e.fire(to, tag, FaultSendErr, FaultRecvDelay, FaultDrop, FaultCorrupt); r != nil {
		return e.sendFaulty(r, to, tag, g.join())
	}
	return sendGather(e.inner, to, tag, g)
}

// sendFaulty applies the fired send-side rule r to one frame.
func (e *faultEndpoint) sendFaulty(r *FaultRule, to, tag int, data []byte) error {
	switch r.Kind {
	case FaultSendErr:
		return fmt.Errorf("%w: send %d->%d", ErrInjected, e.inner.Rank(), to)
	case FaultDrop:
		return nil // frame silently lost
	case FaultCorrupt:
		if len(data) == 0 {
			return e.inner.Send(to, tag, data)
		}
		// Flip one mid-payload bit on a copy (the caller may reuse
		// its buffer, and must not see the corruption).
		cp := make([]byte, len(data))
		copy(cp, data)
		cp[len(cp)/2] ^= 0x10
		return e.inner.Send(to, tag, cp)
	case FaultRecvDelay:
		cp := make([]byte, len(data))
		copy(cp, data)
		go func() {
			time.Sleep(r.Delay)
			e.inner.Send(to, tag, cp) //nolint:errcheck // late frame on a dead transport is moot
		}()
		return nil
	}
	return e.inner.Send(to, tag, data)
}

func (e *faultEndpoint) Recv(from, tag int) (Packet, error) { return e.recv(from, tag, 0) }

func (e *faultEndpoint) RecvTimeout(from, tag int, d time.Duration) (Packet, error) {
	return e.recv(from, tag, deadline(d))
}

// recv runs one receive past the slow rules and the receive-side
// schedule, then receives through the wrapped endpoint, waiting at most
// d when d > 0.
func (e *faultEndpoint) recv(from, tag int, d time.Duration) (Packet, error) {
	e.stall(from, tag)
	if r := e.fire(from, tag, FaultRecvErr); r != nil {
		return Packet{}, fmt.Errorf("%w: recv %d<-%d", ErrInjected, e.inner.Rank(), from)
	}
	return receive(e.inner, from, tag, d)
}
