// Package interp executes Vienna Fortran subset programs (parsed by
// internal/lang, checked by internal/sem) on the Vienna Fortran Engine —
// the runtime counterpart of what the VFCS compiles (paper §3.2: "an
// abstract machine that executes Vienna Fortran object programs").
//
// Semantics follow the paper's SPMD model:
//
//   - the program has a single global name space and a single logical
//     thread of control; every processor executes the interpreter over
//     the same statements (scalar state is replicated and deterministic);
//   - array element assignments follow the owner-computes rule: the
//     owners of the left-hand side evaluate the right-hand side (fetching
//     non-local operands through the one-sided access functions of
//     §3.2.1) and store locally;
//   - DISTRIBUTE statements execute collectively through internal/core,
//     moving whole connect classes and honouring NOTRANSFER and RANGE;
//   - DCASE and IDT dispatch on the *current* distribution via
//     internal/query;
//   - CALLs dispatch to registered builtins.  The provided TRIDIAG
//     mirrors Figure 1's contract: when the referenced line is fully
//     local to its owners it solves in place without communication; when
//     the line spans processors it gathers it element-wise — exactly the
//     "compiler must embed the required communication" fallback the paper
//     describes for the non-redistributed variant.
//
// The interpreter is a semantics demonstrator, not an optimizing
// compiler: array assignments evaluate per element, and only the
// statement forms the paper's listings use are supported.
package interp

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/query"
	"repro/internal/sem"
)

// Builtin is a registered procedure.  Args are scalars (float64) or
// array/section references (*ArrayArg).
type Builtin func(st *State, args []any) error

// ArrayArg is an array or array-section actual argument.
type ArrayArg struct {
	Arr *core.Array
	// Fixed holds the fixed subscripts; -1 marks section (range)
	// dimensions.  A whole-array argument has all dimensions -1.
	Fixed []int
}

// SectionDims returns the indices of the range dimensions.
func (a *ArrayArg) SectionDims() []int {
	var out []int
	for k, v := range a.Fixed {
		if v < 0 {
			out = append(out, k)
		}
	}
	return out
}

// Interp holds the registered builtins and the engine.
type Interp struct {
	Engine   *core.Engine
	builtins map[string]Builtin

	// Report, when set, receives the busy time of every compute statement
	// (CALL, assignment, FORALL), its builtins' communication waits
	// included: one unit of work, comparable across ranks that execute
	// the same statements in lockstep.
	Report func(ctx *machine.Ctx, busy time.Duration)
}

// New creates an interpreter over an engine and registers Figure 1's
// builtins, TRIDIAG and RESID; a program's other procedures are
// registered by whoever runs it (apps.RegisterFig2 for Figure 2).
func New(e *core.Engine) *Interp {
	in := &Interp{Engine: e, builtins: map[string]Builtin{}}
	in.Register("TRIDIAG", builtinTridiag)
	in.Register("RESID", builtinResid)
	return in
}

// Register adds (or replaces) a builtin procedure.
func (in *Interp) Register(name string, fn Builtin) { in.builtins[name] = fn }

// State is the per-processor execution state.
type State struct {
	In      *Interp
	Ctx     *machine.Ctx
	Unit    *sem.Unit
	Scalars map[string]float64
	arrays  map[string]*core.Array

	// factors holds TRIDIAG's eliminations by line length.
	factors map[int]kernels.Factor
}

// Array resolves a declared array by name.
func (st *State) Array(name string) (*core.Array, bool) {
	a, ok := st.arrays[name]
	return a, ok
}

// NewState starts executing the program on the calling processor (invoke
// from within machine.Run on every rank): its scalar environment holds the
// PARAMETERs and $NP, and no array is declared yet.  Run and Trip execute
// its statements.
func (in *Interp) NewState(ctx *machine.Ctx, unit *sem.Unit) (*State, error) {
	if unit.HasErrors() {
		return nil, fmt.Errorf("interp: program has semantic errors: %v", unit.Diags[0])
	}
	st := &State{In: in, Ctx: ctx, Unit: unit, Scalars: map[string]float64{}, arrays: map[string]*core.Array{},
		factors: map[int]kernels.Factor{}}
	for k, v := range unit.Params {
		st.Scalars[k] = float64(v)
	}
	st.Scalars["$NP"] = float64(ctx.NP())
	return st, nil
}

// Trip executes one trip of a DO loop's body with its induction variable
// set to v.
func (st *State) Trip(do *lang.DoStmt, v float64) error {
	st.Scalars[do.Var] = v
	return st.Run(do.Body)
}

// Run executes a statement list.
func (st *State) Run(list []lang.Stmt) error {
	for _, s := range list {
		if err := st.stmt(s); err != nil {
			return err
		}
		// Owner-computes stores become visible to the other processors'
		// one-sided reads at the next synchronization point; executing
		// statement lists in lockstep provides it.  (FORALL's owned-only
		// fast path bypasses this deliberately: its iterations are
		// independent by assertion and it barriers once at the end.)
		if as, ok := s.(*lang.AssignStmt); ok {
			if _, isArr := st.arrays[as.LHS.Name]; isArr {
				if err := st.Ctx.Barrier(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (st *State) stmt(s lang.Stmt) error {
	switch stm := s.(type) {
	case *lang.ParameterStmt:
		return nil // resolved by sem
	case *lang.ProcessorsStmt:
		return st.processors(stm)
	case *lang.DeclStmt:
		return st.declare(stm)
	case *lang.DistributeStmt:
		return st.distribute(stm)
	case *lang.SelectStmt:
		return st.selectStmt(stm)
	case *lang.IfStmt:
		c, err := st.evalLogical(stm.Cond)
		if err != nil {
			return err
		}
		if c {
			return st.Run(stm.Then)
		}
		return st.Run(stm.Else)
	case *lang.DoStmt:
		from, err := st.evalScalar(stm.From)
		if err != nil {
			return err
		}
		to, err := st.evalScalar(stm.To)
		if err != nil {
			return err
		}
		step := 1.0
		if stm.Step != nil {
			if step, err = st.evalScalar(stm.Step); err != nil {
				return err
			}
		}
		if step == 0 {
			return fmt.Errorf("%v: DO step is zero", stm.Pos())
		}
		for v := from; (step > 0 && v <= to) || (step < 0 && v >= to); v += step {
			if err := st.Trip(stm, v); err != nil {
				return err
			}
		}
		return nil
	case *lang.ForallStmt:
		return st.computeStmt(func() error { return st.forall(stm) })
	case *lang.CallStmt:
		return st.computeStmt(func() error { return st.call(stm) })
	case *lang.AssignStmt:
		return st.computeStmt(func() error { return st.assign(stm) })
	}
	return fmt.Errorf("%v: unsupported statement %T", s.Pos(), s)
}

// computeStmt runs one compute statement, reporting its busy time
// through Interp.Report when that is set.
func (st *State) computeStmt(run func() error) error {
	if st.In.Report == nil {
		return run()
	}
	t0 := time.Now()
	err := run()
	st.In.Report(st.Ctx, time.Since(t0))
	return err
}

// forall executes an explicitly parallel loop.  Iterations are
// independent by assertion, so the engine partitions the iteration space
// by the owner-computes rule: when the body is a single element
// assignment A(..., V, ...) = expr whose subscript in some dimension is
// exactly the loop variable, each processor iterates only over the values
// of V for which it owns the left-hand side — "the compiler distributes
// work based upon the owner computes rule" (§1).  Otherwise every
// processor walks the full range (the per-element owner test still makes
// each element's store unique).
//
// DISTRIBUTE and DCASE are not legal inside FORALL (the construct is a
// parallel loop; its iterations may not change descriptors).
func (st *State) forall(stm *lang.ForallStmt) error {
	for _, s := range stm.Body {
		switch s.(type) {
		case *lang.DistributeStmt, *lang.SelectStmt:
			return fmt.Errorf("%v: %T not allowed inside FORALL", s.Pos(), s)
		}
	}
	from, err := st.evalScalar(stm.From)
	if err != nil {
		return err
	}
	to, err := st.evalScalar(stm.To)
	if err != nil {
		return err
	}
	step := 1.0
	if stm.Step != nil {
		if step, err = st.evalScalar(stm.Step); err != nil {
			return err
		}
	}
	if step == 0 {
		return fmt.Errorf("%v: FORALL step is zero", stm.Pos())
	}

	// Owner-computes partitioning for the single-assignment body.
	if len(stm.Body) == 1 {
		if as, ok := stm.Body[0].(*lang.AssignStmt); ok {
			if arr, isArr := st.arrays[as.LHS.Name]; isArr && as.LHS.Indices != nil && arr.Distributed(st.Ctx.Rank()) {
				dim := -1
				for k, ix := range as.LHS.Indices {
					if ref, ok := ix.(*lang.Ref); ok && ref.Indices == nil && ref.Name == stm.Var {
						dim = k
					}
				}
				if dim >= 0 {
					// iterate only the owned indices of that dimension
					rs := arr.Local(st.Ctx).Grid().Dims[dim]
					var ferr error
					rs.ForEach(func(i int) bool {
						v := float64(i)
						if (step > 0 && (v < from || v > to)) || (step < 0 && (v > from || v < to)) {
							return true
						}
						if mod := int(v-from) % int(step); step != 1 && mod != 0 {
							return true
						}
						st.Scalars[stm.Var] = v
						if err := st.stmt(stm.Body[0]); err != nil {
							ferr = err
							return false
						}
						return true
					})
					if ferr != nil {
						return ferr
					}
					// FORALL completes collectively
					if err := st.Ctx.Barrier(); err != nil {
						return err
					}
					return nil
				}
			}
		}
	}
	// general body: full-range walk, owner-computes per element
	for v := from; (step > 0 && v <= to) || (step < 0 && v >= to); v += step {
		st.Scalars[stm.Var] = v
		if err := st.Run(stm.Body); err != nil {
			return err
		}
	}
	if err := st.Ctx.Barrier(); err != nil {
		return err
	}
	return nil
}

func (st *State) processors(stm *lang.ProcessorsStmt) error {
	bounds := make([][2]int, len(stm.Bounds))
	for i, b := range stm.Bounds {
		lo := 1
		if b[0] != nil {
			v, err := st.evalScalar(b[0])
			if err != nil {
				return err
			}
			lo = int(v)
		}
		hi, err := st.evalScalar(b[1])
		if err != nil {
			return err
		}
		bounds[i] = [2]int{lo, int(hi)}
	}
	st.Ctx.Machine().Procs(stm.Name, bounds...)
	return nil
}

func (st *State) declare(stm *lang.DeclStmt) error {
	for _, dn := range stm.Names {
		if len(dn.Dims) == 0 {
			st.Scalars[dn.Name] = 0
			continue
		}
		bounds := make([][2]int, len(dn.Dims))
		for i, b := range dn.Dims {
			lo := 1
			if b[0] != nil {
				v, err := st.evalScalar(b[0])
				if err != nil {
					return err
				}
				lo = int(v)
			}
			hi, err := st.evalScalar(b[1])
			if err != nil {
				return err
			}
			bounds[i] = [2]int{lo, int(hi)}
		}
		dom := index.NewDomain(bounds...)

		decl := core.Decl{Name: dn.Name, Domain: dom, Dynamic: stm.Dynamic}
		ai := st.Unit.Arrays[dn.Name]
		if ai != nil {
			decl.Range = ai.Range
		}
		switch {
		case stm.Connect != nil:
			if stm.Connect.Extract != "" {
				decl.ConnectTo = stm.Connect.Extract
			} else {
				al, err := st.alignment(stm.Connect.Align, dom)
				if err != nil {
					return err
				}
				decl.ConnectTo = stm.Connect.Align.DstName
				decl.Align = al
			}
		case stm.Align != nil:
			al, err := st.alignment(stm.Align, dom)
			if err != nil {
				return err
			}
			decl.AlignWith = stm.Align.DstName
			decl.StaticAlign = al
		case stm.Dist != nil:
			spec, err := st.distSpec(stm.Dist, dom)
			if err != nil {
				return err
			}
			if stm.Dynamic {
				decl.Init = spec
			} else {
				decl.Static = spec
			}
		default:
			if !stm.Dynamic {
				// replicated local array: every dimension elided on the
				// default target
				dims := make([]dist.DimSpec, dom.Rank())
				for i := range dims {
					dims[i] = dist.ElidedDim()
				}
				decl.Static = &core.DistSpec{Type: dist.NewType(dims...)}
			}
		}
		a, err := st.In.Engine.Declare(st.Ctx, decl)
		if err != nil {
			return fmt.Errorf("%v: %w", stm.Pos(), err)
		}
		st.arrays[dn.Name] = a
	}
	return nil
}

// alignment converts a source-level AlignSpec into a dist.Alignment.
func (st *State) alignment(al *lang.AlignSpec, srcDom index.Domain) (*dist.Alignment, error) {
	maps := make([]dist.AxisMap, len(al.DstIdx))
	for j, e := range al.DstIdx {
		name, stride, offset, ok := st.Unit.AffineOf(e, al.SrcIdx)
		if !ok {
			return nil, fmt.Errorf("alignment subscript %v is not affine", e)
		}
		if name == "" {
			maps[j] = dist.AxisConst(offset)
			continue
		}
		srcDim := -1
		for i, n := range al.SrcIdx {
			if n == name {
				srcDim = i
			}
		}
		maps[j] = dist.AxisAffine(srcDim, stride, offset)
	}
	a := dist.NewAlignment(maps...)
	return &a, nil
}

// distSpec evaluates a distribution expression to a core.DistSpec.
func (st *State) distSpec(de *lang.DistExpr, dom index.Domain) (*core.DistSpec, error) {
	dims := make([]dist.DimSpec, len(de.Dims))
	for i, d := range de.Dims {
		spec, err := st.dimSpec(d, dom, i, de.Target)
		if err != nil {
			return nil, err
		}
		dims[i] = spec
	}
	spec := &core.DistSpec{Type: dist.NewType(dims...)}
	if de.Target != "" {
		pa := st.Ctx.Machine().Procs(de.Target, procBounds(st, de.Target)...)
		spec.Target = pa.Whole()
	}
	return spec, nil
}

// procBounds re-resolves a declared processor array's bounds (the
// machine caches by name, so this is consistent).
func procBounds(st *State, name string) [][2]int {
	pi := st.Unit.Procs[name]
	if pi == nil {
		panic(fmt.Sprintf("interp: unknown processor array %s", name))
	}
	out := make([][2]int, pi.Rank)
	for i, e := range pi.Extents {
		if e < 0 {
			e = st.Ctx.NP()
		}
		out[i] = [2]int{1, e}
	}
	return out
}

// dimSpec evaluates one distribution component; B_BLOCK/S_BLOCK arguments
// are integer arrays read from the (replicated) runtime values.
func (st *State) dimSpec(d lang.DistDim, dom index.Domain, dimIdx int, target string) (dist.DimSpec, error) {
	switch d.Kind {
	case lang.DBlock:
		return dist.BlockDim(), nil
	case lang.DElided:
		return dist.ElidedDim(), nil
	case lang.DCyclic:
		k := 1
		if d.Arg != nil {
			v, err := st.evalScalar(d.Arg)
			if err != nil {
				return dist.DimSpec{}, err
			}
			k = int(v)
		}
		return dist.CyclicDim(k), nil
	case lang.DSBlock, lang.DBBlock:
		ref, ok := d.Arg.(*lang.Ref)
		if !ok || ref.Indices != nil {
			return dist.DimSpec{}, fmt.Errorf("%v needs an array argument", d.Kind)
		}
		arr, ok := st.arrays[ref.Name]
		if !ok {
			return dist.DimSpec{}, fmt.Errorf("%v argument %s is not a declared array", d.Kind, ref.Name)
		}
		n := arr.Domain().Size()
		vals := make([]int, n)
		l := arr.Local(st.Ctx)
		i := 0
		l.ForEachOwned(func(p index.Point, v *float64) {
			vals[i] = int(*v)
			i++
		})
		if d.Kind == lang.DSBlock {
			return dist.SBlockDim(vals...), nil
		}
		return dist.BBlockDim(vals...), nil
	}
	return dist.DimSpec{}, fmt.Errorf("unsupported distribution component %v", d.Kind)
}

func (st *State) distribute(stm *lang.DistributeStmt) error {
	// A DISTRIBUTE synchronizes nothing, but the interpreter's non-local
	// element reads and writes (darray.Array.Get/Set) reach straight into
	// the owner's Local — the shared-address backdoor of ROADMAP item 4.
	// So the statement is fenced here: the barrier before it lets every
	// processor finish such accesses under the old distribution before
	// any owner commits the new one, and the barrier after lets every
	// owner commit before any processor accesses it under the new one.
	if err := st.Ctx.Barrier(); err != nil {
		return err
	}
	if err := st.distributeExec(stm); err != nil {
		return err
	}
	return st.Ctx.Barrier()
}

func (st *State) distributeExec(stm *lang.DistributeStmt) error {
	var arrays []*core.Array
	for _, n := range stm.Names {
		a, ok := st.arrays[n]
		if !ok {
			return fmt.Errorf("%v: DISTRIBUTE of undeclared array %s", stm.Pos(), n)
		}
		arrays = append(arrays, a)
	}
	var nt []*core.Array
	for _, n := range stm.NoTransfer {
		a, ok := st.arrays[n]
		if !ok {
			return fmt.Errorf("%v: NOTRANSFER of undeclared array %s", stm.Pos(), n)
		}
		nt = append(nt, a)
	}
	if stm.Align != nil {
		al, err := st.alignment(stm.Align, arrays[0].Domain())
		if err != nil {
			return err
		}
		return st.In.Engine.Distribute(st.Ctx, arrays, core.AlignWith(stm.Align.DstName, *al), core.NoTransfer(nt...))
	}
	// build the expression; extraction components read current types
	dims := make([]core.DimExpr, len(stm.Expr.Dims))
	for i, d := range stm.Expr.Dims {
		if d.Kind == lang.DExtract {
			dims[i] = core.FromDim(d.From, 0)
			continue
		}
		spec, err := st.dimSpec(d, arrays[0].Domain(), i, stm.Expr.Target)
		if err != nil {
			return fmt.Errorf("%v: %w", stm.Pos(), err)
		}
		dims[i] = core.Lit(spec)
	}
	ex := core.Dims(dims...)
	if stm.Expr.Target != "" {
		pa := st.Ctx.Machine().Procs(stm.Expr.Target, procBounds(st, stm.Expr.Target)...)
		ex = ex.To(pa.Whole())
	}
	if err := st.In.Engine.Distribute(st.Ctx, arrays, ex, core.NoTransfer(nt...)); err != nil {
		return fmt.Errorf("%v: %w", stm.Pos(), err)
	}
	return nil
}

// selectStmt runs a DCASE construct through query.DCase: the first arm
// whose query list matches the selectors' current distributions runs.
func (st *State) selectStmt(stm *lang.SelectStmt) error {
	sels := make([]query.Selector, len(stm.Selectors))
	for i, n := range stm.Selectors {
		a, ok := st.arrays[n]
		if !ok {
			return fmt.Errorf("%v: DCASE selector %s not declared", stm.Pos(), n)
		}
		sels[i] = a
	}
	dc := query.Select(st.Ctx.Rank(), sels...)
	for _, arm := range stm.Arms {
		action := func() error { return st.Run(arm.Body) }
		if arm.Default {
			dc.Default(action)
			continue
		}
		qs := make([]query.Q, len(arm.Queries))
		for i, q := range arm.Queries {
			qs[i] = query.Q{Tag: q.Tag, Pattern: st.Unit.AbstractPattern(q.Pattern)}
		}
		dc.Case(action, qs...)
	}
	// An error before any arm ran is the construct's; an arm's own error
	// is its statements', already positioned.
	matched, err := dc.Run()
	if err != nil && matched < 0 {
		return fmt.Errorf("%v: %w", stm.Pos(), err)
	}
	return err
}

func (st *State) call(stm *lang.CallStmt) error {
	fn, ok := st.In.builtins[stm.Name]
	if !ok {
		return fmt.Errorf("%v: CALL of unregistered procedure %s", stm.Pos(), stm.Name)
	}
	args := make([]any, len(stm.Args))
	for i, a := range stm.Args {
		v, err := st.evalArg(a)
		if err != nil {
			return fmt.Errorf("%v: %w", stm.Pos(), err)
		}
		args[i] = v
	}
	return fn(st, args)
}

// evalArg evaluates a call argument: array/section references become
// *ArrayArg, everything else a float64 scalar.
func (st *State) evalArg(e lang.Expr) (any, error) {
	if ref, ok := e.(*lang.Ref); ok {
		if arr, isArr := st.arrays[ref.Name]; isArr {
			fixed := make([]int, arr.Domain().Rank())
			if ref.Indices == nil {
				for i := range fixed {
					fixed[i] = -1
				}
				return &ArrayArg{Arr: arr, Fixed: fixed}, nil
			}
			if len(ref.Indices) != len(fixed) {
				return nil, fmt.Errorf("%s subscripted with %d of %d dimensions", ref.Name, len(ref.Indices), len(fixed))
			}
			hasRange := false
			for k, ix := range ref.Indices {
				if _, isRange := ix.(*lang.RangeIdx); isRange {
					fixed[k] = -1
					hasRange = true
					continue
				}
				v, err := st.evalScalar(ix)
				if err != nil {
					return nil, err
				}
				fixed[k] = int(v)
			}
			if hasRange {
				return &ArrayArg{Arr: arr, Fixed: fixed}, nil
			}
			// fully subscripted element: pass the value
			return arr.DArray().Get(st.Ctx, index.Point(fixed)), nil
		}
	}
	return st.evalScalar(e)
}

// assign executes scalar or owner-computes element assignment.
func (st *State) assign(stm *lang.AssignStmt) error {
	lhs := stm.LHS
	if _, isArr := st.arrays[lhs.Name]; !isArr {
		v, err := st.evalScalar(stm.RHS)
		if err != nil {
			return err
		}
		st.Scalars[lhs.Name] = v
		return nil
	}
	arr := st.arrays[lhs.Name]
	if lhs.Indices == nil {
		return fmt.Errorf("%v: whole-array assignment to %s not supported", stm.Pos(), lhs.Name)
	}
	p := make(index.Point, len(lhs.Indices))
	for k, ix := range lhs.Indices {
		v, err := st.evalScalar(ix)
		if err != nil {
			return err
		}
		p[k] = int(v)
	}
	// owner-computes: only owners evaluate the RHS and store
	d := arr.DistOf(st.Ctx.Rank())
	if d == nil {
		return fmt.Errorf("%v: %s assigned before association with a distribution", stm.Pos(), lhs.Name)
	}
	if d.IsLocal(st.Ctx.Rank(), p) {
		v, err := st.evalScalar(stm.RHS)
		if err != nil {
			return err
		}
		arr.Local(st.Ctx).SetAt(p, v)
	}
	return nil
}

// evalScalar evaluates a numeric expression; array references fetch
// elements (possibly remotely); MOD and MIN/MAX intrinsics supported.
func (st *State) evalScalar(e lang.Expr) (float64, error) {
	switch ex := e.(type) {
	case *lang.IntLit:
		return float64(ex.Value), nil
	case *lang.Ref:
		if arr, ok := st.arrays[ex.Name]; ok {
			if ex.Indices == nil {
				return 0, fmt.Errorf("whole array %s in scalar context", ex.Name)
			}
			p := make(index.Point, len(ex.Indices))
			for k, ix := range ex.Indices {
				v, err := st.evalScalar(ix)
				if err != nil {
					return 0, err
				}
				p[k] = int(v)
			}
			return arr.DArray().Get(st.Ctx, p), nil
		}
		if ex.Indices != nil {
			// intrinsic function call
			args := make([]float64, len(ex.Indices))
			for i, ix := range ex.Indices {
				v, err := st.evalScalar(ix)
				if err != nil {
					return 0, err
				}
				args[i] = v
			}
			switch ex.Name {
			case "MOD":
				if len(args) != 2 {
					return 0, fmt.Errorf("MOD takes 2 arguments")
				}
				return math.Mod(args[0], args[1]), nil
			case "MIN":
				v := args[0]
				for _, a := range args[1:] {
					if a < v {
						v = a
					}
				}
				return v, nil
			case "MAX":
				v := args[0]
				for _, a := range args[1:] {
					if a > v {
						v = a
					}
				}
				return v, nil
			}
			return 0, fmt.Errorf("unknown function %s", ex.Name)
		}
		v, ok := st.Scalars[ex.Name]
		if !ok {
			return 0, fmt.Errorf("undefined scalar %s", ex.Name)
		}
		return v, nil
	case *lang.UnExpr:
		v, err := st.evalScalar(ex.X)
		if err != nil {
			return 0, err
		}
		switch ex.Op {
		case lang.MINUS:
			return -v, nil
		case lang.NOT:
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case *lang.BinExpr:
		switch ex.Op {
		case lang.AND, lang.OR, lang.EQ, lang.NE, lang.LT, lang.LE, lang.GT, lang.GE:
			b, err := st.evalLogical(ex)
			if err != nil {
				return 0, err
			}
			if b {
				return 1, nil
			}
			return 0, nil
		}
		l, err := st.evalScalar(ex.L)
		if err != nil {
			return 0, err
		}
		r, err := st.evalScalar(ex.R)
		if err != nil {
			return 0, err
		}
		switch ex.Op {
		case lang.PLUS:
			return l + r, nil
		case lang.MINUS:
			return l - r, nil
		case lang.STAR:
			return l * r, nil
		case lang.SLASH:
			if r == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return l / r, nil
		}
	case *lang.IDTExpr:
		b, err := st.evalIDT(ex)
		if err != nil {
			return 0, err
		}
		if b {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("unsupported expression %T", e)
}

// evalLogical evaluates a generalized logical expression (§2.5.2).
func (st *State) evalLogical(e lang.Expr) (bool, error) {
	switch ex := e.(type) {
	case *lang.IDTExpr:
		return st.evalIDT(ex)
	case *lang.UnExpr:
		if ex.Op == lang.NOT {
			b, err := st.evalLogical(ex.X)
			return !b, err
		}
	case *lang.BinExpr:
		switch ex.Op {
		case lang.AND, lang.OR:
			l, err := st.evalLogical(ex.L)
			if err != nil {
				return false, err
			}
			r, err := st.evalLogical(ex.R)
			if err != nil {
				return false, err
			}
			if ex.Op == lang.AND {
				return l && r, nil
			}
			return l || r, nil
		case lang.EQ, lang.NE, lang.LT, lang.LE, lang.GT, lang.GE:
			l, err := st.evalScalar(ex.L)
			if err != nil {
				return false, err
			}
			r, err := st.evalScalar(ex.R)
			if err != nil {
				return false, err
			}
			switch ex.Op {
			case lang.EQ:
				return l == r, nil
			case lang.NE:
				return l != r, nil
			case lang.LT:
				return l < r, nil
			case lang.LE:
				return l <= r, nil
			case lang.GT:
				return l > r, nil
			case lang.GE:
				return l >= r, nil
			}
		}
	}
	v, err := st.evalScalar(e)
	return v != 0, err
}

func (st *State) evalIDT(ex *lang.IDTExpr) (bool, error) {
	arr, ok := st.arrays[ex.Array]
	if !ok {
		return false, fmt.Errorf("IDT of undeclared array %s", ex.Array)
	}
	if !arr.Distributed(st.Ctx.Rank()) {
		return false, fmt.Errorf("IDT of %s before association with a distribution", ex.Array)
	}
	return query.IDT(st.Ctx.Rank(), arr, st.Unit.AbstractPattern(ex.Pattern)), nil
}
