// Package core implements the paper's primary contribution: Vienna
// Fortran's *dynamic data distributions* (paper §2.3–§2.4).
//
// It provides:
//
//   - statically and dynamically distributed array declarations, with the
//     DYNAMIC, RANGE, DIST (initial distribution) and CONNECT annotations;
//   - the connect equivalence relation: every dynamic array belongs to a
//     class C(B) with one primary array B and any number of secondary
//     arrays connected by distribution extraction ("CONNECT (=B)") or by
//     alignment; classes in different scopes are independent and do not
//     extend across procedure boundaries (§2.3, conditions 1–5);
//   - the executable DISTRIBUTE statement with the NOTRANSFER attribute,
//     implemented exactly as §3.2.2 prescribes: evaluate the new
//     distribution, derive every connected array's distribution with
//     CONSTRUCT, then COMMUNICATE for every member not in NOTRANSFER;
//   - procedure-boundary redistribution (§4): CallWith temporarily
//     redistributes an array to a callee's declared distribution, and —
//     unlike HPF, as the paper notes — returns the new distribution to
//     the caller when asked to.
//
// An Engine is a declaration scope (a procedure's environment).  All
// operations are SPMD-collective: every processor calls them in the same
// order with equivalent arguments.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ckpt"
	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/trace"
)

// Engine is a Vienna Fortran declaration scope bound to a machine.
type Engine struct {
	m *machine.Machine

	mu     sync.Mutex
	arrays map[string]*Array
	order  []string

	// memBudget is the peak-resident-wire-bytes bound applied to every
	// DISTRIBUTE data transfer (0 = unbounded; see darray.MemBudget).
	memBudget atomic.Int64

	// ckptMu guards ckptOpts (function-valued fields rule out an atomic).
	ckptMu   sync.Mutex
	ckptOpts ckpt.Options

	defOnce sync.Once
	def     dist.Target // DefaultTarget, resolved once for every DISTRIBUTE
	// view is the executing view's target of the latest shrunken epoch
	// (viewTarget), resolved once per epoch.
	view atomic.Pointer[epochView]
}

// epochView is the target of a view smaller than the machine: np ranks
// of membership epoch epoch.
type epochView struct {
	epoch, np int
	tg        dist.Target
}

// SetCkptOptions installs the parallel-I/O options (redundancy mode,
// retention, filesystem and retry policy) applied to
// every Checkpoint/Restore/Recover through this engine.  The SPMD
// contract applies: every rank must observe the same value at each
// collective.
func (e *Engine) SetCkptOptions(o ckpt.Options) {
	e.ckptMu.Lock()
	e.ckptOpts = o
	e.ckptMu.Unlock()
}

// CkptOptions returns the engine's checkpoint I/O options.
func (e *Engine) CkptOptions() ckpt.Options {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	return e.ckptOpts
}

// SetMemBudget installs the redistribution memory budget: every
// DISTRIBUTE (and CallWith restore) executed through this engine bounds
// its peak resident wire bytes per rank to n.  n <= 0 restores the
// unbounded default.  Safe to call from any rank, but the SPMD contract
// applies: every rank must observe the same value at each collective.
func (e *Engine) SetMemBudget(n int64) { e.memBudget.Store(n) }

// MemBudgetDefault returns the engine's redistribution memory budget
// (0 = unbounded).
func (e *Engine) MemBudgetDefault() int64 { return e.memBudget.Load() }

// NewEngine creates a scope on the given machine.  Collective-by-
// convention: create it before Machine.Run (it is plain construction, no
// communication).
func NewEngine(m *machine.Machine) *Engine {
	return &Engine{m: m, arrays: make(map[string]*Array)}
}

// Machine returns the underlying machine.
func (e *Engine) Machine() *machine.Machine { return e.m }

// DefaultTarget returns the whole machine viewed as a one-dimensional
// processor array $P(1:NP), the target used when a declaration omits
// "TO R(...)".
func (e *Engine) DefaultTarget() dist.Target {
	e.defOnce.Do(func() { e.def = e.m.ProcsDim("$P", e.m.NP()).Whole() })
	return e.def
}

// viewTarget is DefaultTarget restricted to the processors that actually
// execute: on membership epoch 0 the whole machine, after an online
// regroup the shrunken survivor view.  Distributions resolved over the
// machine's full width on a smaller view would leave their last blocks
// owned by no executing rank — data silently dropped at the next
// DISTRIBUTE — so every declaration and DISTRIBUTE target defaults to
// the view, not the machine.  A shrunken view's target is resolved once
// per epoch, so every DISTRIBUTE of the epoch names the same target
// object and can resolve to a distribution the rank holds.
func (e *Engine) viewTarget(ctx *machine.Ctx) dist.Target {
	np, ep := ctx.NP(), ctx.Epoch()
	if np == e.m.NP() {
		return e.DefaultTarget()
	}
	if v := e.view.Load(); v != nil && v.epoch == ep && v.np == np {
		return v.tg
	}
	v := &epochView{ep, np, e.m.ProcsDim(fmt.Sprintf("$P.%d", ep), np).Whole()}
	e.view.Store(v)
	return v.tg
}

// Lookup finds a declared array by name.
func (e *Engine) Lookup(name string) (*Array, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	a, ok := e.arrays[name]
	return a, ok
}

// Arrays lists the declared arrays in declaration order.
func (e *Engine) Arrays() []*Array {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Array, 0, len(e.order))
	for _, n := range e.order {
		out = append(out, e.arrays[n])
	}
	return out
}

// ConnKind tells how a secondary array is connected to its primary.
type ConnKind int

// Connection kinds.
const (
	// ConnNone marks a primary (or static) array.
	ConnNone ConnKind = iota
	// ConnExtract is distribution extraction: CONNECT (=B).
	ConnExtract
	// ConnAlign is an alignment connection: CONNECT A(I,J) WITH B(...).
	ConnAlign
)

// connectClass is the equivalence class C(B) of §2.3.
type connectClass struct {
	primary     *Array
	secondaries []*Array
}

// Decl describes one array declaration.  Exactly the information of the
// paper's annotations, in Go values:
//
//	REAL B3(N,N) DYNAMIC, RANGE((BLOCK,BLOCK),(*,CYCLIC)), DIST(BLOCK,CYCLIC)
//
// becomes
//
//	Decl{Name: "B3", Domain: index.Dim(n, n), Dynamic: true,
//	     Range: dist.Range{...}, Init: &DistSpec{Type: ...}}
type Decl struct {
	Name   string
	Domain index.Domain

	// Dynamic declares the array DYNAMIC; otherwise it is statically
	// distributed and Static must be set.
	Dynamic bool
	// Static is the fixed distribution of a non-dynamic array.
	Static *DistSpec
	// StaticAlign declares a static array aligned with another array
	// (Example 1's "ALIGN D(I,J,K) WITH C(J,I,K)"): the distribution is
	// derived from AlignWith's at declaration time.
	StaticAlign *dist.Alignment
	// AlignWith names the target array of StaticAlign.
	AlignWith string

	// Range restricts the distribution types a dynamic primary may take
	// (empty = unrestricted).
	Range dist.Range
	// Init is the initial distribution of a dynamic primary (nil = none;
	// the array may not be accessed before its first DISTRIBUTE).
	Init *DistSpec

	// ConnectTo makes this a secondary array of the named primary.
	ConnectTo string
	// Connect chooses extraction (default when Align is nil) or
	// alignment.
	Align *dist.Alignment

	// Ghost declares overlap areas (per-dimension symmetric widths).
	Ghost []int
}

// DistSpec is a distribution expression plus an optional target section
// ("TO R(...)"); a nil Target means the engine's default 1-D view.
type DistSpec struct {
	Type   dist.Type
	Target dist.Target
}

// resolve applies the spec to a domain, defaulting the target to the
// executing view.
func (e *Engine) resolve(ctx *machine.Ctx, s *DistSpec, dom index.Domain) (*dist.Distribution, error) {
	tg := s.Target
	if tg == nil {
		tg = e.viewTarget(ctx)
	}
	return dist.New(s.Type, dom, tg)
}

// Declare executes a declaration on every processor (collective).  It
// enforces the static rules of §2.3: a secondary must connect to a
// dynamic primary declared in the same scope; an initial distribution
// must satisfy the declared range; static arrays must have a (derivable)
// distribution.
func (e *Engine) Declare(ctx *machine.Ctx, d Decl) (*Array, error) {
	if d.Domain.Rank() == 0 {
		return nil, fmt.Errorf("core: %s: empty domain", d.Name)
	}
	defer ctx.Tracer().BeginSpan(ctx.Rank(), trace.CatDeclare, "DECLARE "+d.Name).End()

	// Resolve what the array's first distribution is, if any.
	var d0 *dist.Distribution
	var err error
	switch {
	case !d.Dynamic && d.StaticAlign != nil:
		other, ok := e.Lookup(d.AlignWith)
		if !ok {
			return nil, fmt.Errorf("core: %s: ALIGN WITH unknown array %s", d.Name, d.AlignWith)
		}
		if other.Dynamic() {
			return nil, fmt.Errorf("core: %s: static alignment with dynamic array %s (use DYNAMIC, CONNECT)", d.Name, d.AlignWith)
		}
		d0, err = dist.Construct(*d.StaticAlign, other.arr.Dist(ctx.Rank()), d.Domain)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", d.Name, err)
		}
	case !d.Dynamic:
		if d.Static == nil {
			return nil, fmt.Errorf("core: %s: static array needs a DIST annotation", d.Name)
		}
		d0, err = e.resolve(ctx, d.Static, d.Domain)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", d.Name, err)
		}
	case d.ConnectTo != "":
		// Secondary: distribution (if the primary has one) derived below.
		if d.Init != nil || len(d.Range) > 0 {
			return nil, fmt.Errorf("core: %s: secondary arrays take no RANGE or initial DIST of their own", d.Name)
		}
	case d.Init != nil:
		d0, err = e.resolve(ctx, d.Init, d.Domain)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", d.Name, err)
		}
		if !d.Range.Allows(d0.DistType()) {
			return nil, fmt.Errorf("core: %s: initial distribution %v violates %v: %w", d.Name, d0.DistType(), d.Range, ErrRangeViolation)
		}
	}

	a := ctx.CollectiveOnce(func() any {
		return &Array{e: e, name: d.Name, dom: d.Domain, dynamic: d.Dynamic, rng: d.Range, own: make([]rankState, ctx.NP())}
	}).(*Array)

	// Connect-class wiring and registration: the first processor to take
	// the lock wires the shared Array object; the others see a.class set
	// and skip.  Validation errors are deterministic, so every processor
	// that attempts the wiring fails identically.
	if err := func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if a.class != nil || a.declErr != nil {
			return a.declErr
		}
		if old, dup := e.arrays[a.name]; dup && old != a {
			a.declErr = fmt.Errorf("core: array %s: %w", a.name, ErrAlreadyDeclared)
			return a.declErr
		}
		fail := func(err error) error {
			a.declErr = err
			return err
		}
		if d.ConnectTo != "" {
			prim, ok := e.arrays[d.ConnectTo]
			if !ok {
				return fail(fmt.Errorf("core: %s: CONNECT to unknown array %s", d.Name, d.ConnectTo))
			}
			if !prim.dynamic || prim.connKind != ConnNone {
				return fail(fmt.Errorf("core: %s: CONNECT target %s is not a dynamic primary array", d.Name, d.ConnectTo))
			}
			if !d.Dynamic {
				return fail(fmt.Errorf("core: %s: secondary arrays must be DYNAMIC", d.Name))
			}
			if d.Align != nil {
				if err := d.Align.Validate(d.Domain, prim.dom); err != nil {
					return fail(fmt.Errorf("core: %s: %w", d.Name, err))
				}
				a.connKind = ConnAlign
				a.align = *d.Align
			} else {
				if d.Domain.Rank() != prim.dom.Rank() {
					return fail(fmt.Errorf("core: %s: extraction rank mismatch with %s", d.Name, d.ConnectTo))
				}
				a.connKind = ConnExtract
			}
			a.class = prim.class
			a.class.secondaries = append(a.class.secondaries, a)
		} else {
			a.class = &connectClass{primary: a}
		}
		e.arrays[a.name] = a
		e.order = append(e.order, a.name)
		return nil
	}(); err != nil {
		return nil, err
	}
	if err := ctx.Barrier(); err != nil {
		return nil, err
	}

	// Secondary with an already-distributed primary: derive now.
	if a.connKind != ConnNone && d0 == nil {
		prim := a.class.primary
		if prim.arr != nil && prim.arr.Distributed(ctx.Rank()) {
			d0, err = a.derive(ctx.Rank(), prim.arr.Dist(ctx.Rank()))
			if err != nil {
				return nil, fmt.Errorf("core: %s: %w", d.Name, err)
			}
		}
	}

	// Storage allocation (collective).
	var opts []darray.Option
	if d.Ghost != nil {
		opts = append(opts, darray.WithGhost(d.Ghost...))
	}
	arr := darray.New(ctx, d.Name, d.Domain, d0, opts...)
	e.mu.Lock()
	if a.arr == nil {
		a.arr = arr // same object on every rank (CollectiveOnce in darray)
	}
	e.mu.Unlock()
	if err := ctx.Barrier(); err != nil {
		return nil, err
	}
	return a, nil
}

// MustDeclare is Declare that panics on error.
func (e *Engine) MustDeclare(ctx *machine.Ctx, d Decl) *Array {
	a, err := e.Declare(ctx, d)
	if err != nil {
		panic(err)
	}
	return a
}
