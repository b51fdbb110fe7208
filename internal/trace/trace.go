// Package trace is the SPMD tracing and per-phase cost-accounting
// subsystem of the Vienna Fortran Engine.
//
// The paper's evaluation claims are communication-shape arguments: (C2)
// dynamic redistribution confines all ADI communication to the DISTRIBUTE
// statement, and (C1) the N/p vs. α/β tradeoff decides between a column
// and a 2-D block smoothing distribution.  Flat message counters
// (msg.Stats) cannot attribute traffic to a specific DISTRIBUTE, ghost
// exchange, or sweep phase; this package can.  Every logical processor
// records a sequence of span begin/end and instant events — DISTRIBUTE
// statements, per-array redistributions, ghost exchanges, collectives,
// user-annotated phases, and individual messages with their payload size
// and peer — each stamped with wall time and, when a cost model is
// attached, the processor's α/β virtual clock.
//
// Recorded traces export two ways: WriteJSON emits Chrome trace_event
// JSON (load in chrome://tracing or https://ui.perfetto.dev, one track
// per processor), and Summarize aggregates per-phase totals — messages,
// bytes, virtual α/β time, barrier wait — attributing each message to the
// innermost enclosing phase-like span on its processor's span stack.
//
// Overhead discipline: a nil *Tracer is valid everywhere and is the
// disabled tracer: every recording method is gated on one nil test.
// Per-rank event buffers are guarded by per-rank mutexes: SPMD programs
// record almost exclusively rank-locally, so the locks are uncontended.
package trace

import (
	"sync"
	"time"
)

// Span/event categories.  Summarize treats CatPhase, CatDistribute,
// CatGhost and CatDeclare as phase-like (attributable); everything else
// is structural.
const (
	// CatPhase marks user-annotated program phases (Ctx.PhaseBegin/End).
	CatPhase = "phase"
	// CatStmt marks a whole DISTRIBUTE statement (all arrays of the
	// connect classes); the per-array work nests inside as CatDistribute.
	CatStmt = "stmt"
	// CatDistribute marks one array's redistribution — the paper's
	// DISTRIBUTE cost for that array.
	CatDistribute = "distribute"
	// CatGhost marks an overlap-area (ghost) exchange.
	CatGhost = "ghost"
	// CatDeclare marks array declaration/allocation.
	CatDeclare = "declare"
	// CatCollective marks a collective operation (barrier, bcast,
	// reduce, alltoallv, ...).
	CatCollective = "collective"
	// CatRedist marks redistribution planner/executor detail — the
	// "redist:plan" span, the "plan:<kind>" instant naming the chosen
	// decomposition and one "redist:step" span per step.  Deliberately NOT
	// attributable: the enclosing CatDistribute span keeps the whole
	// DISTRIBUTE cost, and these nested spans only show the breakdown.
	CatRedist = "redist"
	// CatMsg marks point-to-point message instants ("send"/"recv").
	CatMsg = "msg"
	// CatIO marks parallel-I/O operations (stripe writes/reads, repairs,
	// retries) under the checkpoint paths.  Like CatRedist it is detail
	// inside an enclosing phase span, so it is not attributable: the
	// "checkpoint"/"restore" phase keeps the whole cost.
	CatIO = "io"
)

// Kind discriminates event records.
type Kind uint8

// Event kinds.
const (
	// KindBegin opens a span on the recording rank.
	KindBegin Kind = iota
	// KindEnd closes the innermost matching span.
	KindEnd
	// KindInstant is a point event (message, cache hit, ...).
	KindInstant
)

// Event is one record on a processor's timeline.
type Event struct {
	Kind Kind
	Cat  string
	Name string
	// T is wall time since the tracer was created.
	T time.Duration
	// V is the processor's α/β virtual clock in seconds at record time
	// (0 when no clock source is attached).
	V float64
	// Peer is the other rank of a message event, -1 otherwise.
	Peer int
	// Bytes is the payload size of a message or packing event, -1
	// otherwise.
	Bytes int64
}

// Tracer records per-processor event timelines for one machine.
type Tracer struct {
	start time.Time
	np    int
	clock func(rank int) float64
	ranks []rankBuf
}

type rankBuf struct {
	mu sync.Mutex
	ev []Event
}

// New creates a tracer for np logical processors.
func New(np int) *Tracer {
	return &Tracer{start: time.Now(), np: np, ranks: make([]rankBuf, np)}
}

// Enabled reports whether the tracer is recording: every non-nil tracer
// is.  Safe on nil.
func (t *Tracer) Enabled() bool { return t != nil }

// SetClockSource attaches a per-rank virtual-clock reader (typically
// (*msg.CostModel).Clock).  Call before the SPMD run starts; events then
// carry virtual timestamps.  Safe on nil.
func (t *Tracer) SetClockSource(f func(rank int) float64) {
	if t != nil {
		t.clock = f
	}
}

func (t *Tracer) record(rank int, e Event) {
	e.T = time.Since(t.start)
	if t.clock != nil {
		e.V = t.clock(rank)
	}
	b := &t.ranks[rank]
	b.mu.Lock()
	b.ev = append(b.ev, e)
	b.mu.Unlock()
}

// Span is a handle for ending a span opened with BeginSpan.  The zero
// Span is a no-op.
type Span struct {
	t    *Tracer
	rank int
	cat  string
	name string
}

// BeginSpan opens a span on rank's timeline and returns the handle to
// close it.  On a nil or disabled tracer it returns a no-op handle.
func (t *Tracer) BeginSpan(rank int, cat, name string) Span {
	if !t.Enabled() {
		return Span{}
	}
	t.record(rank, Event{Kind: KindBegin, Cat: cat, Name: name, Peer: -1, Bytes: -1})
	return Span{t: t, rank: rank, cat: cat, name: name}
}

// End closes the span.
func (s Span) End() {
	if s.t != nil {
		s.t.EndSpan(s.rank, s.cat, s.name)
	}
}

// EndSpan closes the innermost span with the given category and name
// (for the by-name PhaseEnd form; BeginSpan/Span.End is the usual pair).
func (t *Tracer) EndSpan(rank int, cat, name string) {
	if !t.Enabled() {
		return
	}
	t.record(rank, Event{Kind: KindEnd, Cat: cat, Name: name, Peer: -1, Bytes: -1})
}

// Instant records a point event on rank's timeline.
func (t *Tracer) Instant(rank int, cat, name string, peer int, bytes int64) {
	if !t.Enabled() {
		return
	}
	t.record(rank, Event{Kind: KindInstant, Cat: cat, Name: name, Peer: peer, Bytes: bytes})
}

// Send records a point-to-point message leaving rank for peer.
func (t *Tracer) Send(rank, peer, bytes int) {
	if !t.Enabled() {
		return
	}
	t.record(rank, Event{Kind: KindInstant, Cat: CatMsg, Name: "send", Peer: peer, Bytes: int64(bytes)})
}

// Recv records a message arriving at rank from peer.
func (t *Tracer) Recv(rank, peer, bytes int) {
	if !t.Enabled() {
		return
	}
	t.record(rank, Event{Kind: KindInstant, Cat: CatMsg, Name: "recv", Peer: peer, Bytes: int64(bytes)})
}

// Events returns a snapshot copy of rank's timeline.
func (t *Tracer) Events(rank int) []Event {
	if t == nil {
		return nil
	}
	b := &t.ranks[rank]
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, len(b.ev))
	copy(out, b.ev)
	return out
}

// attributable reports whether a span category accumulates message and
// wait costs in the per-phase summary.
func attributable(cat string) bool {
	return cat == CatPhase || cat == CatDistribute || cat == CatGhost || cat == CatDeclare
}
