// Package vienna is a Go reproduction of the dynamic data-distribution
// system of Vienna Fortran, after:
//
//	B. Chapman, P. Mehrotra, H. Moritsch, H. Zima.
//	"Dynamic Data Distributions in Vienna Fortran", Supercomputing '93
//	(NASA CR-191575 / ICASE Report 93-92).
//
// The package is a facade over the engine packages in internal/: it
// re-exports the SPMD machine, the distribution sublanguage (BLOCK,
// CYCLIC(k), S_BLOCK, B_BLOCK, alignment), dynamically distributed arrays
// with connect classes, the executable DISTRIBUTE statement with
// NOTRANSFER, and the DCASE/IDT query constructs.
//
// # Quick start
//
//	m := vienna.NewMachine(4)
//	defer m.Close()
//	e := vienna.NewEngine(m)
//	err := m.Run(func(ctx *vienna.Ctx) error {
//		// REAL V(100,100) DYNAMIC, DIST(:, BLOCK)
//		v := e.MustDeclare(ctx, vienna.Decl{
//			Name:    "V",
//			Domain:  vienna.Dim(100, 100),
//			Dynamic: true,
//			Init:    &vienna.DistSpec{Type: vienna.NewType(vienna.Elided(), vienna.Block())},
//		})
//		// ... x-sweep with local columns ...
//		// DISTRIBUTE V :: (BLOCK, :)
//		e.MustDistribute(ctx, []*vienna.Array{v}, vienna.DimsOf(vienna.Block(), vienna.Elided()))
//		// ... y-sweep with local rows ...
//		return nil
//	})
//
// # Overlapping computation with communication
//
// Ghost (overlap) areas refresh through one-sided windows: each face
// leaves as a put and lands when its receiver waits, so the exchange can
// stay in flight while the owning processor computes its interior:
//
//	h, err := u.StartExchangeAllGhosts(ctx) // halos leave as one-sided puts
//	if err != nil {
//		return err
//	}
//	// ... update points whose stencil reads no ghost cell ...
//	if err := h.Wait(); err != nil {        // halos are now readable
//		return err
//	}
//	// ... update the segment-boundary points ...
//
// The synchronous u.ExchangeAllGhosts(ctx) is the start+wait pair in one
// call.
//
// See examples/ for complete programs (the paper's ADI and PIC codes among
// them) and DESIGN.md for the architecture.
package vienna

import (
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/query"
	"repro/internal/trace"
)

// Machine is the SPMD execution engine: P logical processors connected by
// a message transport.
type Machine = machine.Machine

// Ctx is one processor's view of the machine during an SPMD run.
type Ctx = machine.Ctx

// ProcArray is a named multi-dimensional arrangement of processors
// (PROCESSORS R(1:M,1:M)).
type ProcArray = machine.ProcArray

// ProcSection is a rectangular subset of a processor array, usable as a
// distribution target ("TO R(...)").
type ProcSection = machine.ProcSection

// MachineOption configures NewMachine (see WithTrace and the
// machine package's options).
type MachineOption = machine.Option

// NewMachine creates a machine with np logical processors on the
// in-process transport.  Use machine options for TCP or a cost model.
func NewMachine(np int, opts ...machine.Option) *Machine { return machine.New(np, opts...) }

// WithTransport runs the machine on a specific transport.
var WithTransport = machine.WithTransport

// WithCostModel attaches a Hockney α/β cost model.
var WithCostModel = machine.WithCostModel

// WithTrace attaches an event tracer to the machine's transport; see
// NewTracer.
var WithTrace = machine.WithTrace

// Tracer records per-processor span/message timelines (the SPMD tracing
// subsystem).  Export with Tracer.WriteJSON (Chrome trace_event format)
// or aggregate with Tracer.Summarize.
type Tracer = trace.Tracer

// TraceSummary is the per-phase cost account of a recorded trace.
type TraceSummary = trace.Summary

// NewTracer creates an enabled tracer for np logical processors; attach
// it with WithTrace (or msg.WithTracer on a custom transport).
var NewTracer = trace.New

// PhaseBegin opens a named user phase on the calling processor's trace
// timeline (no-op when the machine has no tracer).
func PhaseBegin(ctx *Ctx, name string) { ctx.PhaseBegin(name) }

// PhaseEnd closes the named user phase opened by PhaseBegin.
func PhaseEnd(ctx *Ctx, name string) { ctx.PhaseEnd(name) }

// NewTCPTransport builds a TCP-loopback transport for np processors.
var NewTCPTransport = msg.NewTCPTransport

// NewChanTransport builds the in-process channel transport explicitly
// (NewMachine defaults to it); useful as the base of a FaultTransport.
var NewChanTransport = msg.NewChanTransport

// RetryPolicy bounds how long collectives wait on the transport: a
// per-receive deadline with bounded retry and exponential escalation.
// Install it machine-wide with WithRetry; the zero value blocks forever
// (the historical behaviour).
type RetryPolicy = msg.RetryPolicy

// WithRetry installs a retry policy on every processor's collectives.
var WithRetry = machine.WithRetry

// FaultTransport decorates any transport with deterministic, seedable
// injection of send errors, delivery delays, and dropped frames — see
// msg.ParseFaultPlan for the rule syntax shared with vfrun's -fault flag.
type FaultTransport = msg.FaultTransport

// FaultPlan is a set of fault rules plus the seed for probabilistic ones.
type FaultPlan = msg.FaultPlan

// NewFaultTransport wraps a transport with a fault plan.
var NewFaultTransport = msg.NewFaultTransport

// ParseFaultPlan parses the -fault flag syntax into a FaultPlan.
var ParseFaultPlan = msg.ParseFaultPlan

// Manifest describes one committed checkpoint epoch: the arrays, their
// recorded distributions, and the per-rank file checksums. Take
// checkpoints with Engine.Checkpoint and replay them — onto the same or
// a smaller machine — with Engine.Restore; see internal/ckpt and
// DESIGN.md "Checkpoint & recovery semantics".
type Manifest = ckpt.Manifest

// LatestEpoch reports the newest committed checkpoint epoch in dir and
// its manifest (-1 and nil when none exists).
var LatestEpoch = ckpt.LatestEpoch

// NewCostModel creates a Hockney cost model (alpha seconds per message,
// beta seconds per byte).
var NewCostModel = msg.NewCostModel

// CostModel tracks per-processor virtual clocks under the α/β model.
type CostModel = msg.CostModel

// Stats collects per-processor message/byte counters.
type Stats = msg.Stats

// Snapshot is a point-in-time copy of traffic counters.
type Snapshot = msg.Snapshot

// Engine is a Vienna Fortran declaration scope.
type Engine = core.Engine

// NewEngine creates a scope on a machine.
func NewEngine(m *Machine) *Engine { return core.NewEngine(m) }

// Array is a declared Vienna Fortran array (static or DYNAMIC).
type Array = core.Array

// Decl describes an array declaration (DIST / DYNAMIC / RANGE / CONNECT /
// ALIGN annotations).
type Decl = core.Decl

// DistSpec is a distribution expression plus an optional target section.
type DistSpec = core.DistSpec

// Expr is the right-hand side of a DISTRIBUTE statement.
type Expr = core.Expr

// DistOption configures a DISTRIBUTE statement (see NoTransfer).
type DistOption = core.DistOption

// NoTransfer lists secondary arrays whose data a DISTRIBUTE does not
// physically move (the paper's NOTRANSFER attribute).
var NoTransfer = core.NoTransfer

// Sentinel errors of the dynamic-distribution constructs; match with
// errors.Is.
var (
	// ErrRangeViolation: a distribution outside an array's declared RANGE.
	ErrRangeViolation = core.ErrRangeViolation
	// ErrNotPrimary: DISTRIBUTE or CallWith on a non-primary array.
	ErrNotPrimary = core.ErrNotPrimary
	// ErrAlreadyDeclared: duplicate array name in one scope.
	ErrAlreadyDeclared = core.ErrAlreadyDeclared
)

// Dims, DimsOf, Lit, From, FromDim and AlignWith build DISTRIBUTE
// right-hand sides; see paper Example 3 for the extraction form.
var (
	Dims      = core.Dims
	DimsOf    = core.DimsOf
	Lit       = core.Lit
	From      = core.From
	FromDim   = core.FromDim
	AlignWith = core.AlignWith
)

// Domain is a rectangular index domain with inclusive bounds.
type Domain = index.Domain

// Point is a multi-dimensional index.
type Point = index.Point

// Dim builds the Fortran-default domain 1:n1, 1:n2, ...
var Dim = index.Dim

// NewDomain builds a domain from explicit (lo,hi) pairs.
var NewDomain = index.NewDomain

// DimSpec is a per-dimension distribution specifier.
type DimSpec = dist.DimSpec

// Type is a distribution type such as (BLOCK, CYCLIC(3), :).
type Type = dist.Type

// Distribution is a type applied to a domain and a processor section.
type Distribution = dist.Distribution

// Alignment is an index mapping between two arrays' domains.
type Alignment = dist.Alignment

// AxisMap is one axis of an alignment.
type AxisMap = dist.AxisMap

// Distribution-expression constructors.
func Block() DimSpec            { return dist.BlockDim() }
func Cyclic(k int) DimSpec      { return dist.CyclicDim(k) }
func SBlock(sz ...int) DimSpec  { return dist.SBlockDim(sz...) }
func BBlock(b ...int) DimSpec   { return dist.BBlockDim(b...) }
func Elided() DimSpec           { return dist.ElidedDim() }
func NewType(d ...DimSpec) Type { return dist.NewType(d...) }

// Alignment constructors.
var (
	Axis              = dist.Axis
	AxisAffine        = dist.AxisAffine
	AxisConst         = dist.AxisConst
	NewAlignment      = dist.NewAlignment
	IdentityAlignment = dist.Identity
	Transpose2D       = dist.Transpose2D
)

// Pattern is a distribution-type pattern for queries and RANGE.
type Pattern = dist.Pattern

// DimPattern matches one dimension in a query.
type DimPattern = dist.DimPattern

// Range is the RANGE annotation: the set of admissible distribution
// types of a dynamic array.
type Range = dist.Range

// Pattern constructors for DCASE / IDT / RANGE.
var (
	PAny       = dist.PAny
	PBlock     = dist.PBlock
	PCyclic    = dist.PCyclic
	PCyclicAny = dist.PCyclicAny
	PElided    = dist.PElided
	PSBlock    = dist.PSBlock
	PBBlock    = dist.PBBlock
	NewPattern = dist.NewPattern
	AnyPattern = dist.AnyPattern
	PatternOf  = dist.PatternOf
)

// Selector is an array whose distribution DCASE and IDT can query.
type Selector = query.Selector

// IDT is the intrinsic distribution-type test (§2.5.2), evaluated on the
// calling processor's descriptor.
func IDT(ctx *Ctx, s Selector, pat Pattern) bool { return query.IDT(ctx.Rank(), s, pat) }

// Select starts a DCASE construct (§2.5.1) executed by the calling
// processor.
func Select(ctx *Ctx, selectors ...Selector) *query.DCase {
	return query.Select(ctx.Rank(), selectors...)
}

// On and P build name-tagged and positional queries.
var (
	On = query.On
	P  = query.P
)

// Q is one query of a DCASE condition list.
type Q = query.Q

// Local is one processor's storage for its part of an array.
type Local = darray.Local

// GhostHandle is an in-flight asynchronous ghost exchange, returned by
// Array.StartExchangeGhosts / Array.StartExchangeAllGhosts.  The halos
// travel as one-sided puts, which Wait applies into the caller's own
// overlap areas; call it before reading the refreshed ghost cells.  See
// "Overlapping computation with communication" in the package
// documentation.
type GhostHandle = darray.GhostHandle

// Window is a one-sided communication window: each processor registers
// its []float64 storage, after which a processor may put into a peer's
// registered region — applied by the peer's await — or pull one out of
// it, on counted streams.  It offers puts (PutAsync/AwaitPut — the
// ghost-exchange discipline) and offers (Offer/Pull — the DISTRIBUTE
// discipline, where the receiver's storage stays private).  The ghost and redistribution machinery use
// windows internally; they are exported for custom one-sided protocols
// over the same transports.
type Window = msg.Window

// NewWindow creates a one-sided window shared by np processors; every
// rank registers its storage with Window.Register before remote access.
var NewWindow = msg.NewWindow

// Rect describes a strided hyper-rectangular region of a window's
// registered storage (offset plus per-dimension stride/count pairs).
type Rect = msg.Rect

// RectDim is one dimension of a Rect.
type RectDim = msg.RectDim

// RectRun builds a one-dimensional contiguous Rect.
var RectRun = msg.RectRun

// WithGhost declares overlap (ghost) areas on an array declaration;
// pass the widths through Decl.Ghost instead when using Declare.
var WithGhost = darray.WithGhost
