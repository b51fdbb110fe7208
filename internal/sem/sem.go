// Package sem performs the static semantic analysis of Vienna Fortran
// subset programs parsed by internal/lang: it builds the declaration
// environment (PARAMETER constants, processor arrays, data arrays with
// their DIST/DYNAMIC/RANGE/CONNECT/ALIGN annotations), forms the connect
// equivalence classes of §2.3, and enforces the paper's static rules:
//
//   - distribute statements apply to primary arrays only (§2.3 rule 3);
//   - secondary arrays connect to a dynamic primary of the same scope and
//     carry no RANGE or initial distribution of their own;
//   - an initial distribution must lie within the declared RANGE;
//   - statically distributed arrays need a distribution (or a derivable
//     alignment);
//   - DCASE query lists are positional or name-tagged, never mixed, and
//     tags name selectors.
//
// Distribution expressions are abstracted into dist.Pattern values: the
// kinds are always known statically, parameters only when they are
// PARAMETER constants (CYCLIC(K) with runtime K becomes CYCLIC(*);
// S_BLOCK/B_BLOCK bounds arrays are always runtime values).  These
// abstract types are the lattice elements of the reaching-distribution
// analysis in internal/analysis.
package sem

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/dist"
	"repro/internal/lang"
)

// Severity of a diagnostic.
type Severity int

// Severities.
const (
	Error Severity = iota
	Warning
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diag is one diagnostic message.
type Diag struct {
	Pos      lang.Pos
	Severity Severity
	Msg      string
}

func (d Diag) String() string {
	return fmt.Sprintf("%v: %v: %s", d.Pos, d.Severity, d.Msg)
}

// ConnKind mirrors core's connection kinds at the source level.
type ConnKind int

// Connection kinds.
const (
	ConnNone ConnKind = iota
	ConnExtract
	ConnAlign
)

// ArrayInfo is the resolved declaration of one array.
type ArrayInfo struct {
	Name    string
	Rank    int
	Extents []int // -1 where not statically known
	Dynamic bool
	// Range is the declared distribution range (empty = unrestricted).
	Range dist.Range
	// Init is the abstract initial distribution (nil if none).
	Init *dist.Pattern
	// Target is the TO clause of the initial/static DIST ("" = default).
	Target string
	// Conn / Primary describe the connect class membership.
	Conn    ConnKind
	Primary *ArrayInfo
	// Align is the alignment spec of ConnAlign members (and of static
	// ALIGN declarations, with Primary pointing at the target array).
	Align *lang.AlignSpec
	// Secondaries lists the members of C(self) for primaries.
	Secondaries []*ArrayInfo
	// Decl is the declaring statement.
	Decl *lang.DeclStmt
}

// ProcInfo is a declared processor array.
type ProcInfo struct {
	Name    string
	Rank    int
	Extents []int // -1 where runtime ($NP)
}

// Unit is the analyzed program scope.
type Unit struct {
	Prog   *lang.Program
	Params map[string]int
	Procs  map[string]*ProcInfo
	Arrays map[string]*ArrayInfo
	Order  []string
	Diags  []Diag
}

// HasErrors reports whether any Error diagnostics were produced.
func (u *Unit) HasErrors() bool {
	for _, d := range u.Diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

func (u *Unit) errf(pos lang.Pos, format string, args ...any) {
	u.Diags = append(u.Diags, Diag{Pos: pos, Severity: Error, Msg: fmt.Sprintf(format, args...)})
}

func (u *Unit) warnf(pos lang.Pos, format string, args ...any) {
	u.Diags = append(u.Diags, Diag{Pos: pos, Severity: Warning, Msg: fmt.Sprintf(format, args...)})
}

// Analyze resolves declarations and checks the static rules.
func Analyze(prog *lang.Program) *Unit {
	u := &Unit{
		Prog:   prog,
		Params: map[string]int{},
		Procs:  map[string]*ProcInfo{},
		Arrays: map[string]*ArrayInfo{},
	}
	for _, s := range prog.Stmts {
		u.topLevel(s)
	}
	// executable statements are checked recursively
	u.checkStmts(prog.Stmts, false)
	return u
}

func (u *Unit) topLevel(s lang.Stmt) {
	switch st := s.(type) {
	case *lang.ParameterStmt:
		for _, d := range st.Defs {
			if _, dup := u.Params[d.Name]; dup {
				u.errf(st.Pos(), "parameter %s redefined", d.Name)
				continue
			}
			v, ok := u.EvalConst(d.Value)
			if !ok {
				u.errf(st.Pos(), "parameter %s has a non-constant value", d.Name)
				continue
			}
			u.Params[d.Name] = v
		}
	case *lang.ProcessorsStmt:
		if _, dup := u.Procs[st.Name]; dup {
			u.errf(st.Pos(), "processor array %s redeclared", st.Name)
			return
		}
		pi := &ProcInfo{Name: st.Name, Rank: len(st.Bounds)}
		for _, b := range st.Bounds {
			lo := 1
			if b[0] != nil {
				if v, ok := u.EvalConst(b[0]); ok {
					lo = v
				} else {
					pi.Extents = append(pi.Extents, -1)
					continue
				}
			}
			if v, ok := u.EvalConst(b[1]); ok {
				pi.Extents = append(pi.Extents, v-lo+1)
			} else {
				pi.Extents = append(pi.Extents, -1)
			}
		}
		u.Procs[st.Name] = pi
	case *lang.DeclStmt:
		u.declStmt(st)
	}
}

func (u *Unit) declStmt(st *lang.DeclStmt) {
	for _, dn := range st.Names {
		if len(dn.Dims) == 0 {
			continue // scalar declaration: no distribution semantics
		}
		if _, dup := u.Arrays[dn.Name]; dup {
			u.errf(st.Pos(), "array %s redeclared", dn.Name)
			continue
		}
		ai := &ArrayInfo{Name: dn.Name, Rank: len(dn.Dims), Dynamic: st.Dynamic, Decl: st}
		for _, b := range dn.Dims {
			lo := 1
			if b[0] != nil {
				if v, ok := u.EvalConst(b[0]); ok {
					lo = v
				} else {
					ai.Extents = append(ai.Extents, -1)
					continue
				}
			}
			if v, ok := u.EvalConst(b[1]); ok {
				ai.Extents = append(ai.Extents, v-lo+1)
			} else {
				ai.Extents = append(ai.Extents, -1)
			}
		}
		u.Arrays[dn.Name] = ai
		u.Order = append(u.Order, dn.Name)

		// RANGE
		for _, r := range st.Range {
			ai.Range = append(ai.Range, u.AbstractPattern(r.Dims))
		}

		switch {
		case st.Connect != nil:
			if !st.Dynamic {
				u.errf(st.Pos(), "%s: CONNECT requires DYNAMIC", dn.Name)
			}
			if st.Dist != nil || len(st.Range) > 0 {
				u.errf(st.Pos(), "%s: secondary arrays take no RANGE or initial DIST of their own", dn.Name)
			}
			primName := st.Connect.Extract
			if st.Connect.Align != nil {
				primName = st.Connect.Align.DstName
			}
			prim, ok := u.Arrays[primName]
			if !ok {
				u.errf(st.Pos(), "%s: CONNECT to unknown array %s", dn.Name, primName)
				break
			}
			if !prim.Dynamic || prim.Conn != ConnNone {
				u.errf(st.Pos(), "%s: CONNECT target %s is not a dynamic primary array", dn.Name, primName)
				break
			}
			ai.Primary = prim
			prim.Secondaries = append(prim.Secondaries, ai)
			if st.Connect.Align != nil {
				ai.Conn = ConnAlign
				ai.Align = st.Connect.Align
				u.checkAlign(st.Pos(), ai, prim, st.Connect.Align)
			} else {
				ai.Conn = ConnExtract
				if prim.Rank != ai.Rank {
					u.errf(st.Pos(), "%s: extraction rank mismatch with %s (%d vs %d)", dn.Name, primName, ai.Rank, prim.Rank)
				}
			}
		case st.Align != nil:
			if st.Dynamic {
				u.errf(st.Pos(), "%s: DYNAMIC alignment must use CONNECT", dn.Name)
			}
			other, ok := u.Arrays[st.Align.DstName]
			if !ok {
				u.errf(st.Pos(), "%s: ALIGN WITH unknown array %s", dn.Name, st.Align.DstName)
				break
			}
			if other.Dynamic {
				u.errf(st.Pos(), "%s: static alignment with dynamic array %s", dn.Name, st.Align.DstName)
			}
			ai.Primary = other
			ai.Align = st.Align
			u.checkAlign(st.Pos(), ai, other, st.Align)
		case st.Dist != nil:
			pat := u.AbstractPattern(st.Dist.Dims)
			ai.Init = &pat
			ai.Target = st.Dist.Target
			if len(st.Dist.Dims) != ai.Rank {
				u.errf(st.Pos(), "%s: DIST has %d components for rank-%d array", dn.Name, len(st.Dist.Dims), ai.Rank)
			}
			u.checkTarget(st.Pos(), dn.Name+": ", st.Dist)
			if len(ai.Range) > 0 && !rangeMayAllow(ai.Range, pat) {
				u.errf(st.Pos(), "%s: initial distribution %v violates %v", dn.Name, pat, ai.Range)
			}
		default:
			if !st.Dynamic {
				// An array with no distribution annotation is replicated
				// (every processor holds it whole) — the Fortran default.
				dims := make([]dist.DimPattern, ai.Rank)
				for i := range dims {
					dims[i] = dist.PElided()
				}
				p := dist.NewPattern(dims...)
				ai.Init = &p
			}
			// dynamic with no initial distribution: legal; must be
			// DISTRIBUTEd before access (checked by the flow analysis)
		}
	}
}

// checkAlign reports what makes an alignment of src with dst illegal:
// a target rank other than dst's, and whatever Alignment refuses.
func (u *Unit) checkAlign(pos lang.Pos, src, dst *ArrayInfo, al *lang.AlignSpec) {
	if len(al.DstIdx) != dst.Rank {
		u.errf(pos, "%s: alignment has %d target subscripts for rank-%d array %s", src.Name, len(al.DstIdx), dst.Rank, dst.Name)
	}
	if _, err := u.Alignment(al, src.Rank); err != nil {
		u.errf(pos, "%s: %v", src.Name, err)
	}
}

// Alignment decodes the ALIGN text of a rank-rank array — A(I,J) WITH
// B(J, 2*I+1, 3) — into the index mapping dist.Construct applies: one
// axis map per target subscript, affine with a positive stride in one
// of the distinct source indices (none a PARAMETER), each used once, or
// constant.  It is
// the one reading of an ALIGN's subscripts: checkAlign reports its
// errors, and the interpreter and the analysis derive through what it
// returns.
func (u *Unit) Alignment(al *lang.AlignSpec, rank int) (dist.Alignment, error) {
	if len(al.SrcIdx) != rank {
		return dist.Alignment{}, fmt.Errorf("alignment lists %d source indices for rank-%d array", len(al.SrcIdx), rank)
	}
	for i, n := range al.SrcIdx {
		if slices.Contains(al.SrcIdx[:i], n) {
			return dist.Alignment{}, fmt.Errorf("duplicate alignment index %s", n)
		}
		if _, isParam := u.Params[n]; isParam {
			// AffineOf would fold the index as the constant.
			return dist.Alignment{}, fmt.Errorf("alignment index %s names a PARAMETER", n)
		}
	}
	maps := make([]dist.AxisMap, len(al.DstIdx))
	used := make([]bool, rank)
	for j, e := range al.DstIdx {
		name, stride, offset, ok := u.AffineOf(e, al.SrcIdx)
		i := slices.Index(al.SrcIdx, name)
		switch {
		case !ok || name != "" && stride < 1:
			return dist.Alignment{}, fmt.Errorf("alignment subscript %v is neither constant nor affine in one index with a positive stride", e)
		case name == "":
			maps[j] = dist.AxisConst(offset)
		case used[i]:
			return dist.Alignment{}, fmt.Errorf("alignment index %s used twice", name)
		default:
			used[i], maps[j] = true, dist.AxisAffine(i, stride, offset)
		}
	}
	return dist.NewAlignment(maps...), nil
}

// AffineOf decomposes e as stride*IDX + offset over one of the given
// index names; name == "" with ok means a constant, which EvalConst
// folds (N/2 of a PARAMETER N included).
func (u *Unit) AffineOf(e lang.Expr, idxNames []string) (name string, stride, offset int, ok bool) {
	if v, isConst := u.EvalConst(e); isConst {
		return "", 0, v, true
	}
	switch ex := e.(type) {
	case *lang.Ref:
		if ex.Indices == nil && slices.Contains(idxNames, ex.Name) {
			return ex.Name, 1, 0, true
		}
	case *lang.BinExpr:
		ln, ls, lo, lok := u.AffineOf(ex.L, idxNames)
		rn, rs, ro, rok := u.AffineOf(ex.R, idxNames)
		if !lok || !rok {
			return "", 0, 0, false
		}
		switch ex.Op {
		case lang.PLUS:
			if ln != "" && rn != "" {
				return "", 0, 0, false
			}
			if ln != "" {
				return ln, ls, lo + ro, true
			}
			return rn, rs, lo + ro, true
		case lang.MINUS:
			if rn != "" {
				return "", 0, 0, false // negative stride unsupported
			}
			return ln, ls, lo - ro, true
		case lang.STAR:
			if ln != "" && rn == "" {
				return ln, ls * ro, lo * ro, true
			}
			if rn != "" && ln == "" {
				return rn, rs * lo, ro * lo, true
			}
		}
	}
	return "", 0, 0, false
}

// EvalConst evaluates a compile-time constant expression (integers,
// PARAMETER names, + - * /).
func (u *Unit) EvalConst(e lang.Expr) (int, bool) {
	switch ex := e.(type) {
	case *lang.IntLit:
		return ex.Value, true
	case *lang.Ref:
		if ex.Indices != nil {
			return 0, false
		}
		v, ok := u.Params[ex.Name]
		return v, ok
	case *lang.UnExpr:
		if ex.Op == lang.MINUS {
			v, ok := u.EvalConst(ex.X)
			return -v, ok
		}
	case *lang.BinExpr:
		l, lok := u.EvalConst(ex.L)
		r, rok := u.EvalConst(ex.R)
		if !lok || !rok {
			return 0, false
		}
		switch ex.Op {
		case lang.PLUS:
			return l + r, true
		case lang.MINUS:
			return l - r, true
		case lang.STAR:
			return l * r, true
		case lang.SLASH:
			if r == 0 {
				return 0, false
			}
			return l / r, true
		}
	}
	return 0, false
}

// Listing is a program cut at its driver loop, the loop a run iterates,
// checkpoints and resizes at: its last top-level DO, if PARAMETERs and
// $NP give its bounds.
type Listing struct {
	// Decls are the top-level declarations; Pre and Post the other
	// statements before and after Loop.  Without a Loop, Pre is them all
	// and Trips is 1: the program is one iteration.
	Decls, Pre, Post []lang.Stmt
	Loop             *lang.DoStmt
	// From and Step are Loop's first value and step, Trips its trip count.
	From, Step, Trips int
	// PerNP names the arrays whose bounds read $NP.
	PerNP []string
}

// Cut cuts the program at its driver loop for a run on np processors.
func (u *Unit) Cut(np int) Listing {
	env := &Unit{Params: maps.Clone(u.Params)}
	env.Params["$NP"] = np
	l, at := Listing{Trips: 1}, -1
	for i, s := range u.Prog.Stmts {
		if do, ok := s.(*lang.DoStmt); ok {
			at, l.Loop = i, do
		}
	}
	if l.Loop != nil {
		from, okFrom := env.EvalConst(l.Loop.From)
		to, okTo := env.EvalConst(l.Loop.To)
		step, okStep := 1, true
		if l.Loop.Step != nil {
			step, okStep = env.EvalConst(l.Loop.Step)
		}
		if okFrom && okTo && okStep && step != 0 {
			l.From, l.Step, l.Trips = from, step, max(0, (to-from+step)/step)
		} else {
			at, l.Loop = -1, nil
		}
	}
	for i, s := range u.Prog.Stmts {
		switch s := s.(type) {
		case *lang.ParameterStmt, *lang.ProcessorsStmt:
			l.Decls = append(l.Decls, s)
		case *lang.DeclStmt:
			l.Decls = append(l.Decls, s)
			for _, d := range s.Names {
				if ai := u.Arrays[d.Name]; ai != nil && slices.Contains(ai.Extents, -1) {
					l.PerNP = append(l.PerNP, d.Name)
				}
			}
		default:
			if at < 0 || i < at {
				l.Pre = append(l.Pre, s)
			} else if i > at {
				l.Post = append(l.Post, s)
			}
		}
	}
	return l
}

// AbstractDim converts a parsed distribution component into the abstract
// domain.
func (u *Unit) AbstractDim(d lang.DistDim) dist.DimPattern {
	switch d.Kind {
	case lang.DBlock:
		return dist.PBlock()
	case lang.DCyclic:
		if d.ArgAny || d.Arg == nil {
			if d.Arg == nil && !d.ArgAny {
				return dist.PCyclic(1) // CYCLIC == CYCLIC(1)
			}
			return dist.PCyclicAny()
		}
		if v, ok := u.EvalConst(d.Arg); ok {
			return dist.PCyclic(v)
		}
		return dist.PCyclicAny()
	case lang.DSBlock:
		return dist.PSBlock()
	case lang.DBBlock:
		return dist.PBBlock()
	case lang.DElided:
		return dist.PElided()
	case lang.DAny:
		return dist.PAny()
	}
	// DExtract is resolved by the flow analysis; abstractly: anything.
	return dist.PAny()
}

// AbstractPattern converts a component list.
func (u *Unit) AbstractPattern(dims []lang.DistDim) dist.Pattern {
	out := make([]dist.DimPattern, len(dims))
	for i, d := range dims {
		out[i] = u.AbstractDim(d)
	}
	return dist.NewPattern(out...)
}

// rangeMayAllow reports whether some pattern of the range may accept some
// concretization of t.
func rangeMayAllow(r dist.Range, t dist.Pattern) bool {
	if len(r) == 0 {
		return true
	}
	for _, p := range r {
		if MayMatch(p, t) {
			return true
		}
	}
	return false
}

// checkStmts walks executable statements recursively.  DISTRIBUTE and
// DCASE are illegal anywhere inside a FORALL: its iterations are
// independent and may not change descriptors.
func (u *Unit) checkStmts(stmts []lang.Stmt, inForall bool) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *lang.DistributeStmt:
			if inForall {
				u.errf(st.Pos(), "DISTRIBUTE not allowed inside FORALL")
			}
			u.checkDistribute(st)
		case *lang.SelectStmt:
			if inForall {
				u.errf(st.Pos(), "DCASE not allowed inside FORALL")
			}
			u.checkSelect(st)
			for _, arm := range st.Arms {
				u.checkStmts(arm.Body, inForall)
			}
		case *lang.IfStmt:
			u.checkExpr(st.Cond)
			u.checkStmts(st.Then, inForall)
			u.checkStmts(st.Else, inForall)
		case *lang.DoStmt:
			u.checkStmts(st.Body, inForall)
		case *lang.ForallStmt:
			u.checkStmts(st.Body, true)
		case *lang.CallStmt:
			for _, a := range st.Args {
				u.checkExpr(a)
			}
		case *lang.AssignStmt:
			u.checkExpr(st.RHS)
		}
	}
}

func (u *Unit) checkExpr(e lang.Expr) {
	switch ex := e.(type) {
	case *lang.IDTExpr:
		if _, ok := u.Arrays[ex.Array]; !ok {
			u.errf(ex.Pos(), "IDT references unknown array %s", ex.Array)
		}
	case *lang.BinExpr:
		u.checkExpr(ex.L)
		u.checkExpr(ex.R)
	case *lang.UnExpr:
		u.checkExpr(ex.X)
	case *lang.Ref:
		for _, ix := range ex.Indices {
			u.checkExpr(ix)
		}
	case *lang.RangeIdx:
		// nothing to check
	}
}

func (u *Unit) checkDistribute(st *lang.DistributeStmt) {
	var with *ArrayInfo
	if st.Align != nil {
		if with = u.Arrays[st.Align.DstName]; with == nil {
			u.errf(st.Pos(), "DISTRIBUTE alignment with unknown array %s", st.Align.DstName)
		}
	}
	for _, n := range st.Names {
		ai, ok := u.Arrays[n]
		if !ok {
			u.errf(st.Pos(), "DISTRIBUTE of undeclared array %s", n)
			continue
		}
		if !ai.Dynamic {
			u.errf(st.Pos(), "DISTRIBUTE applied to statically distributed array %s", n)
		}
		if ai.Conn != ConnNone {
			u.errf(st.Pos(), "DISTRIBUTE applied to secondary array %s (apply it to %s)", n, ai.Primary.Name)
		}
		if st.Expr != nil && len(st.Expr.Dims) != ai.Rank {
			u.errf(st.Pos(), "DISTRIBUTE %s: expression has %d components for rank-%d array", n, len(st.Expr.Dims), ai.Rank)
		}
		if with != nil {
			u.checkAlign(st.Pos(), ai, with, st.Align)
		}
	}
	if st.Expr != nil {
		for _, d := range st.Expr.Dims {
			if d.Kind == lang.DExtract {
				src, ok := u.Arrays[d.From]
				if !ok {
					u.errf(st.Pos(), "extraction from undeclared array %s", d.From)
				} else if !src.Dynamic && src.Init == nil {
					u.warnf(st.Pos(), "extraction from array %s with no distribution annotation", d.From)
				}
			}
		}
		u.checkTarget(st.Pos(), "", st.Expr)
	}
	// NOTRANSFER members must be secondaries of the distributed classes
	for _, n := range st.NoTransfer {
		c, ok := u.Arrays[n]
		if !ok {
			u.errf(st.Pos(), "NOTRANSFER of undeclared array %s", n)
			continue
		}
		legal := false
		for _, pn := range st.Names {
			if p, ok := u.Arrays[pn]; ok && c.Conn != ConnNone && c.Primary == p {
				legal = true
			}
		}
		if !legal {
			u.errf(st.Pos(), "NOTRANSFER array %s is not a secondary of the distributed class(es)", n)
		}
	}
}

func (u *Unit) checkSelect(st *lang.SelectStmt) {
	names := map[string]bool{}
	for _, s := range st.Selectors {
		if _, ok := u.Arrays[s]; !ok {
			u.errf(st.Pos(), "DCASE selector %s is not a declared array", s)
			continue
		}
		names[s] = true
	}
	for _, arm := range st.Arms {
		if arm.Default {
			continue
		}
		tagged, positional := 0, 0
		seen := map[string]bool{}
		for _, q := range arm.Queries {
			if q.Tag == "" {
				positional++
				continue
			}
			tagged++
			if !names[q.Tag] {
				u.errf(arm.Pos(), "name tag %s is not a selector", q.Tag)
			}
			if seen[q.Tag] {
				u.errf(arm.Pos(), "selector %s tagged twice in one query list", q.Tag)
			}
			seen[q.Tag] = true
		}
		if tagged > 0 && positional > 0 {
			u.errf(arm.Pos(), "query list mixes positional and name-tagged queries")
		}
		if positional > len(st.Selectors) {
			u.errf(arm.Pos(), "%d positional queries for %d selectors", positional, len(st.Selectors))
		}
	}
}

// DefMatch reports that query pattern q accepts *every* concretization of
// abstract type t (per dimension; shorter q pads with implicit "*").
func DefMatch(q, t dist.Pattern) bool {
	if q.Any {
		return true
	}
	if len(q.Dims) > len(t.Dims) && !t.Any {
		return false
	}
	if t.Any {
		return len(q.Dims) == 0
	}
	for i, qd := range q.Dims {
		if !defMatchDim(qd, t.Dims[i]) {
			return false
		}
	}
	return true
}

// MayMatch reports that q accepts *some* concretization of t.
func MayMatch(q, t dist.Pattern) bool {
	if q.Any || t.Any {
		return true
	}
	if len(q.Dims) > len(t.Dims) {
		return false
	}
	for i, qd := range q.Dims {
		if !mayMatchDim(qd, t.Dims[i]) {
			return false
		}
	}
	return true
}

func defMatchDim(q, t dist.DimPattern) bool {
	if q.Any {
		return true
	}
	if t.Any {
		return false
	}
	if q.Kind != t.Kind {
		return false
	}
	switch q.Kind {
	case dist.Cyclic:
		if q.AnyParam {
			return true
		}
		return !t.AnyParam && q.K == t.K
	case dist.SBlock, dist.BBlock:
		// abstract types never know irregular parameters; only a
		// parameter-wildcard query definitely matches
		return q.AnyParam || (q.Sizes == nil && q.Bounds == nil)
	}
	return true
}

func mayMatchDim(q, t dist.DimPattern) bool {
	if q.Any || t.Any {
		return true
	}
	if q.Kind != t.Kind {
		return false
	}
	switch q.Kind {
	case dist.Cyclic:
		return q.AnyParam || t.AnyParam || q.K == t.K
	}
	return true
}

// checkTarget checks a TO clause: a declared processor array, and one
// subscript per dimension when it names a section.
func (u *Unit) checkTarget(pos lang.Pos, what string, de *lang.DistExpr) {
	if de.Target == "" {
		return
	}
	pi, ok := u.Procs[de.Target]
	if !ok {
		u.errf(pos, "%sTO references unknown processor array %s", what, de.Target)
		return
	}
	if de.TargetIdx != nil && len(de.TargetIdx) != pi.Rank {
		u.errf(pos, "%sTO %s has %d subscripts for a rank-%d processor array", what, de.Target, len(de.TargetIdx), pi.Rank)
	}
}
