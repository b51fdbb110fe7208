// Package analysis implements the compiler analysis of paper §3.1: "the
// compiler must determine the range of distribution types which may reach
// a specific array access in the code" (the *reaching distribution
// problem*), computing for every dynamic array at every program point the
// *set of plausible distributions* — pairs of a distribution type and a
// target processor array — and performing "a partial evaluation of
// distribution queries (both IDT and the dcase construct), by checking
// whether there is a plausible distribution which will match".
//
// The analysis is an abstract interpretation over the structured AST
// (equivalent to a forward may-dataflow on the CFG: straight-line
// statements transform the state, IF/DCASE branches fork and join it, DO
// loops iterate to a fixpoint — termination holds because states only
// grow toward a finite set of abstract types generated by the program
// text).  Abstract types are dist.Pattern values produced by internal/sem
// (kinds exact, parameters possibly unknown).
package analysis

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/dist"
	"repro/internal/lang"
	"repro/internal/sem"
)

// AbsDist is one plausible distribution: an abstract type plus the
// target processor section it maps onto.
type AbsDist struct {
	Type   dist.Pattern
	Target string // "" = default machine view
}

func (a AbsDist) String() string {
	if a.Target == "" {
		return a.Type.String()
	}
	return a.Type.String() + " TO " + a.Target
}

func (a AbsDist) key() string { return a.String() }

// TypeSet is a set of plausible distributions.  The empty set means "no
// distribution reaches here" (access would be illegal, §2.3).
type TypeSet []AbsDist

func (s TypeSet) String() string {
	if len(s) == 0 {
		return "{⊥ (no distribution)}"
	}
	parts := make([]string, len(s))
	for i, a := range s {
		parts[i] = a.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func (s TypeSet) contains(a AbsDist) bool {
	k := a.key()
	for _, x := range s {
		if x.key() == k {
			return true
		}
	}
	return false
}

// union returns s ∪ o (canonical order).
func (s TypeSet) union(o TypeSet) TypeSet {
	out := append(TypeSet{}, s...)
	for _, a := range o {
		if !out.contains(a) {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

func (s TypeSet) equal(o TypeSet) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i].key() != o[i].key() {
			return false
		}
	}
	return true
}

// State maps dynamic array names to their reaching sets.
type State map[string]TypeSet

func (st State) clone() State {
	out := make(State, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

func (st State) join(o State) State {
	out := st.clone()
	for k, v := range o {
		out[k] = out[k].union(v)
	}
	return out
}

func (st State) equal(o State) bool {
	if len(st) != len(o) {
		return false
	}
	for k, v := range st {
		if !v.equal(o[k]) {
			return false
		}
	}
	return true
}

// Verdict classifies a partially evaluated query.
type Verdict int

// Verdicts.
const (
	Maybe Verdict = iota
	Always
	Never
)

func (v Verdict) String() string {
	switch v {
	case Always:
		return "always"
	case Never:
		return "never"
	}
	return "maybe"
}

// ArmEval records the partial evaluation of one DCASE arm.
type ArmEval struct {
	Pos     lang.Pos
	Arm     int // 1-based
	Verdict Verdict
}

// CondEval records the partial evaluation of an IF condition.
type CondEval struct {
	Pos     lang.Pos
	Verdict Verdict
}

// RefInfo records the reaching set at one array reference — the §3.1
// deliverable ("the set of all such pairs which is valid for a specific
// array at a specific position in the program").
type RefInfo struct {
	Pos   lang.Pos
	Array string
	Set   TypeSet
}

// Result is the analysis output.
type Result struct {
	Unit *sem.Unit
	// Final is the state after the whole program.
	Final State
	// Refs lists every array reference in executable statements with its
	// reaching set, in program order.
	Refs []RefInfo
	// Arms / Conds hold the partial evaluations.
	Arms  []ArmEval
	Conds []CondEval
	// Diags extends the unit's diagnostics with flow-sensitive findings
	// (possible/definite RANGE violations, access before distribution).
	Diags []sem.Diag

	// loops holds the enclosing DO/FORALL induction variables during the
	// walk; sites the assignments it recorded, for AnalyzeComm.
	loops []string
	sites []site
}

// site is one assignment the recording walk reached: the DO/FORALL
// induction variables around it and the state reaching it.
type site struct {
	stm   *lang.AssignStmt
	loops []string
	st    State
}

func (r *Result) errf(pos lang.Pos, format string, args ...any) {
	r.Diags = append(r.Diags, sem.Diag{Pos: pos, Severity: sem.Error, Msg: fmt.Sprintf(format, args...)})
}

func (r *Result) warnf(pos lang.Pos, format string, args ...any) {
	r.Diags = append(r.Diags, sem.Diag{Pos: pos, Severity: sem.Warning, Msg: fmt.Sprintf(format, args...)})
}

// Analyze runs the reaching-distribution analysis over the unit.
func Analyze(u *sem.Unit) *Result {
	r := &Result{Unit: u}
	st := State{}
	for _, name := range u.Order {
		ai := u.Arrays[name]
		switch {
		case ai.Init != nil:
			st[name] = TypeSet{{Type: *ai.Init, Target: ai.Target}}
		case ai.Primary == nil:
			if ai.Dynamic {
				st[name] = TypeSet{} // ⊥: not accessible yet
			}
		case ai.Conn == sem.ConnExtract:
			st[name] = st[ai.Primary.Name]
		default: // a static ALIGN or a CONNECT alignment
			st[name] = r.alignedSet(ai.Decl.Pos(), ai, ai.Align, st[ai.Primary.Name])
		}
	}
	r.Final = r.stmts(u.Prog.Stmts, st)
	return r
}

// stmts interprets a statement list.
func (r *Result) stmts(list []lang.Stmt, st State) State {
	for _, s := range list {
		st = r.stmt(s, st)
	}
	return st
}

func (r *Result) stmt(s lang.Stmt, st State) State {
	switch stm := s.(type) {
	case *lang.DistributeStmt:
		return r.distribute(stm, st)
	case *lang.SelectStmt:
		return r.selectStmt(stm, st)
	case *lang.IfStmt:
		return r.ifStmt(stm, st)
	case *lang.ForallStmt:
		r.recordExpr(stm.From, st)
		r.recordExpr(stm.To, st)
		// FORALL iterations are independent; a single pass suffices
		r.loops = append(r.loops, stm.Var)
		defer r.popLoop()
		return r.stmts(stm.Body, st)
	case *lang.DoStmt:
		r.recordExpr(stm.From, st)
		r.recordExpr(stm.To, st)
		r.loops = append(r.loops, stm.Var)
		defer r.popLoop()
		// fixpoint: the body may execute 0..n times
		cur := st
		for i := 0; ; i++ {
			next := cur.join(r.stmtsNoRecord(stm.Body, cur))
			if next.equal(cur) {
				break
			}
			cur = next
			if i > 100 {
				panic("analysis: DO fixpoint did not converge")
			}
		}
		// record refs once with the stable loop-entry state
		r.stmts(stm.Body, cur)
		return cur
	case *lang.CallStmt:
		for _, a := range stm.Args {
			r.recordExpr(a, st)
		}
		return st
	case *lang.AssignStmt:
		r.recordRef(stm.LHS, st)
		r.recordExpr(stm.RHS, st)
		r.sites = append(r.sites, site{stm: stm, loops: slices.Clone(r.loops), st: st})
		return st
	}
	return st
}

func (r *Result) popLoop() { r.loops = r.loops[:len(r.loops)-1] }

// stmtsNoRecord interprets statements without recording references (used
// inside the DO fixpoint so references are reported once, against the
// converged state).
func (r *Result) stmtsNoRecord(list []lang.Stmt, st State) State {
	savedRefs, savedArms, savedConds, savedDiags, savedSites := r.Refs, r.Arms, r.Conds, r.Diags, r.sites
	out := r.stmts(list, st)
	r.Refs, r.Arms, r.Conds, r.Diags, r.sites = savedRefs, savedArms, savedConds, savedDiags, savedSites
	return out
}

// distribute transforms the state per §2.4: the named primaries (and
// their connect classes) take the evaluated distribution.
func (r *Result) distribute(stm *lang.DistributeStmt, st State) State {
	out := st.clone()
	for _, name := range stm.Names {
		ai, ok := r.Unit.Arrays[name]
		if !ok || ai.Conn != sem.ConnNone || !ai.Dynamic {
			continue // sem reported these
		}
		var newSet TypeSet
		if stm.Align != nil {
			// alignment form: derived from the target array's reaching set
			with := st[stm.Align.DstName]
			if len(with) == 0 {
				with = TypeSet{{Type: dist.AnyPattern()}} // ⊥ or undeclared: anything
			}
			newSet = r.alignedSet(stm.Pos(), ai, stm.Align, with)
		} else {
			newSet = r.evalDistExpr(stm, stm.Expr, st)
		}
		// RANGE enforcement (§2.3: "Distribute statements applied to the
		// Bi must respect the restrictions imposed by this attribute")
		if len(ai.Range) > 0 {
			for _, a := range newSet {
				def := false
				may := false
				for _, rp := range ai.Range {
					if sem.DefMatch(rp, a.Type) {
						def = true
					}
					if sem.MayMatch(rp, a.Type) {
						may = true
					}
				}
				if !may {
					r.errf(stm.Pos(), "DISTRIBUTE %s :: %v violates declared %v", name, a.Type, ai.Range)
				} else if !def {
					r.warnf(stm.Pos(), "DISTRIBUTE %s :: %v may violate declared %v (parameters unknown at compile time)", name, a.Type, ai.Range)
				}
			}
		}
		out[name] = newSet
		// the whole connect class moves (§2.4)
		for _, sec := range ai.Secondaries {
			if sec.Conn == sem.ConnExtract {
				out[sec.Name] = newSet
			} else {
				out[sec.Name] = r.alignedSet(stm.Pos(), sec, sec.Align, newSet)
			}
		}
	}
	return out
}

// evalDistExpr produces the abstract set a distribution expression
// denotes; extraction components fan out over the source array's set.
func (r *Result) evalDistExpr(stm *lang.DistributeStmt, de *lang.DistExpr, st State) TypeSet {
	sets := make([][]dist.DimPattern, len(de.Dims))
	for i, d := range de.Dims {
		if d.Kind == lang.DExtract {
			src := st[d.From]
			if len(src) == 0 {
				// extraction from an array with no reaching distribution
				if ai, ok := r.Unit.Arrays[d.From]; ok && ai.Dynamic {
					r.warnf(stm.Pos(), "extraction from %s which may have no distribution here", d.From)
				}
				sets[i] = []dist.DimPattern{dist.PAny()}
				continue
			}
			var dims []dist.DimPattern
			seen := map[string]bool{}
			for _, t := range src {
				var dp dist.DimPattern
				if t.Type.Any || len(t.Type.Dims) == 0 {
					dp = dist.PAny()
				} else {
					dp = t.Type.Dims[0]
				}
				if !seen[dp.String()] {
					dims = append(dims, dp)
					seen[dp.String()] = true
				}
			}
			sets[i] = dims
			continue
		}
		sets[i] = []dist.DimPattern{r.Unit.AbstractDim(d)}
	}
	// cartesian product
	out := TypeSet{}
	var rec func(i int, acc []dist.DimPattern)
	rec = func(i int, acc []dist.DimPattern) {
		if i == len(sets) {
			dims := make([]dist.DimPattern, len(acc))
			copy(dims, acc)
			out = out.union(TypeSet{{Type: dist.NewPattern(dims...), Target: de.Target}})
			return
		}
		for _, dp := range sets[i] {
			rec(i+1, append(acc, dp))
		}
	}
	rec(0, nil)
	return out
}

// selectStmt partially evaluates a DCASE construct and joins the arm
// states (§3.1: "partial evaluation of distribution queries ... by
// checking whether there is a plausible distribution which will match").
func (r *Result) selectStmt(stm *lang.SelectStmt, st State) State {
	reachable := st
	var outs []State
	armAlways := -1
	for i, arm := range stm.Arms {
		verdict := Always
		if !arm.Default {
			verdict = r.armVerdict(stm, arm, reachable)
		}
		r.Arms = append(r.Arms, ArmEval{Pos: arm.Pos(), Arm: i + 1, Verdict: verdict})
		if verdict == Never {
			continue // dead arm: contributes nothing
		}
		armIn := r.refine(stm, arm, reachable)
		outs = append(outs, r.stmts(arm.Body, armIn))
		if verdict == Always && armAlways < 0 {
			armAlways = i
			break // later arms and the fall-through are unreachable
		}
	}
	var out State
	if armAlways < 0 {
		out = reachable // no arm may match: construct completes actionless
	} else {
		out = State{}
	}
	for _, o := range outs {
		out = out.join(o)
	}
	if out == nil {
		out = reachable
	}
	return out
}

// armVerdict classifies one arm's query list against the incoming sets.
func (r *Result) armVerdict(stm *lang.SelectStmt, arm lang.CaseArm, st State) Verdict {
	always := true
	for qi, q := range arm.Queries {
		sel := q.Tag
		if sel == "" {
			if qi >= len(stm.Selectors) {
				return Never
			}
			sel = stm.Selectors[qi]
		}
		set := st[sel]
		if len(set) == 0 {
			// access before distribution: a run-time error; treat as never
			r.warnf(arm.Pos(), "selector %s may have no distribution at this DCASE", sel)
			return Maybe
		}
		switch v, _ := query(r.Unit.AbstractPattern(q.Pattern), set); v {
		case Never:
			return Never
		case Maybe:
			always = false
		}
	}
	if always {
		return Always
	}
	return Maybe
}

// refine narrows selector sets inside an arm by its queries.
func (r *Result) refine(stm *lang.SelectStmt, arm lang.CaseArm, st State) State {
	out := st.clone()
	for qi, q := range arm.Queries {
		sel := q.Tag
		if sel == "" {
			if qi >= len(stm.Selectors) {
				continue
			}
			sel = stm.Selectors[qi]
		}
		_, out[sel] = query(r.Unit.AbstractPattern(q.Pattern), out[sel])
	}
	return out
}

// query partially evaluates query q over a reaching set: Never if no
// plausible distribution may match it, Always if every one must, and
// the members that may match.
func query(q dist.Pattern, set TypeSet) (Verdict, TypeSet) {
	v := Always
	var kept TypeSet
	for _, t := range set {
		if sem.MayMatch(q, t.Type) {
			kept = append(kept, t)
		}
		if !sem.DefMatch(q, t.Type) {
			v = Maybe
		}
	}
	if len(kept) == 0 {
		return Never, nil
	}
	return v, kept
}

// ifStmt partially evaluates IDT conditions and joins the branches.
func (r *Result) ifStmt(stm *lang.IfStmt, st State) State {
	verdict, refThen := r.condVerdict(stm.Cond, st)
	r.Conds = append(r.Conds, CondEval{Pos: stm.Pos(), Verdict: verdict})
	var outs []State
	if verdict != Never {
		outs = append(outs, r.stmts(stm.Then, refThen))
	}
	if verdict != Always {
		outs = append(outs, r.stmts(stm.Else, st))
	}
	out := State{}
	for i, o := range outs {
		if i == 0 {
			out = o
		} else {
			out = out.join(o)
		}
	}
	return out
}

// condVerdict evaluates a generalized logical expression; only IDT atoms
// and .AND. conjunctions refine (other operators yield Maybe without
// refinement, conservatively).
func (r *Result) condVerdict(e lang.Expr, st State) (Verdict, State) {
	switch ex := e.(type) {
	case *lang.IDTExpr:
		set := st[ex.Array]
		if len(set) == 0 {
			return Maybe, st
		}
		v, kept := query(r.Unit.AbstractPattern(ex.Pattern), set)
		if v == Never {
			return Never, st
		}
		ref := st.clone()
		ref[ex.Array] = kept
		return v, ref
	case *lang.BinExpr:
		if ex.Op == lang.AND {
			lv, lst := r.condVerdict(ex.L, st)
			rv, rst := r.condVerdict(ex.R, lst)
			_ = rst
			switch {
			case lv == Never || rv == Never:
				return Never, st
			case lv == Always && rv == Always:
				return Always, rst
			default:
				return Maybe, rst
			}
		}
		if ex.Op == lang.OR {
			lv, _ := r.condVerdict(ex.L, st)
			rv, _ := r.condVerdict(ex.R, st)
			switch {
			case lv == Always || rv == Always:
				return Always, st
			case lv == Never && rv == Never:
				return Never, st
			}
		}
		return Maybe, st
	case *lang.UnExpr:
		if ex.Op == lang.NOT {
			v, _ := r.condVerdict(ex.X, st)
			switch v {
			case Always:
				return Never, st
			case Never:
				return Always, st
			}
		}
		return Maybe, st
	}
	return Maybe, st
}

// recordExpr walks an expression recording array references.
func (r *Result) recordExpr(e lang.Expr, st State) {
	switch ex := e.(type) {
	case *lang.Ref:
		r.recordRef(ex, st)
	case *lang.BinExpr:
		r.recordExpr(ex.L, st)
		r.recordExpr(ex.R, st)
	case *lang.UnExpr:
		r.recordExpr(ex.X, st)
	case *lang.RangeIdx:
		if ex.Lo != nil {
			r.recordExpr(ex.Lo, st)
		}
		if ex.Hi != nil {
			r.recordExpr(ex.Hi, st)
		}
		if ex.Step != nil {
			r.recordExpr(ex.Step, st)
		}
	}
}

func (r *Result) recordRef(ref *lang.Ref, st State) {
	if ai, ok := r.Unit.Arrays[ref.Name]; ok {
		set := st[ref.Name]
		if ai.Dynamic && len(set) == 0 {
			r.errf(ref.Pos(), "%s may be accessed before it has been associated with a distribution", ref.Name)
		}
		r.Refs = append(r.Refs, RefInfo{Pos: ref.Pos(), Array: ref.Name, Set: set})
	}
	for _, ix := range ref.Indices {
		r.recordExpr(ix, st)
	}
}

// alignedSet derives the reaching set of array ai, aligned by spec with
// an array that reaches prim: each plausible distribution through
// dist.ConstructPattern, the abstraction of the rule dist.Construct
// applies at run time.  A derivation the run would refuse is reported
// at pos.  A spec sem refused decodes to no axes, which derives "*" in
// every dimension.
func (r *Result) alignedSet(pos lang.Pos, ai *sem.ArrayInfo, spec *lang.AlignSpec, prim TypeSet) TypeSet {
	al, _ := r.Unit.Alignment(spec, ai.Rank)
	var out TypeSet
	for _, t := range prim {
		p, err := dist.ConstructPattern(al, t.Type, ai.Rank)
		if err != nil {
			r.errf(pos, "%s aligned with %s under %v: %v", ai.Name, spec.DstName, t.Type, err)
		}
		out = out.union(TypeSet{{Type: p, Target: t.Target}})
	}
	return out
}

// Report renders the analysis result as text (used by cmd/vfanalyze).
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "arrays:\n")
	for _, name := range r.Unit.Order {
		ai := r.Unit.Arrays[name]
		kind := "static"
		if ai.Dynamic {
			kind = "DYNAMIC"
			if ai.Conn == sem.ConnExtract {
				kind += fmt.Sprintf(", CONNECT(=%s)", ai.Primary.Name)
			} else if ai.Conn == sem.ConnAlign {
				kind += fmt.Sprintf(", CONNECT aligned with %s", ai.Primary.Name)
			}
		}
		fmt.Fprintf(&b, "  %-8s rank %d  %s", name, ai.Rank, kind)
		if len(ai.Range) > 0 {
			fmt.Fprintf(&b, "  %v", ai.Range)
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "\nreaching distribution sets at array references:\n")
	for _, ref := range r.Refs {
		fmt.Fprintf(&b, "  %6v  %-8s %v\n", ref.Pos, ref.Array, ref.Set)
	}
	if len(r.Arms) > 0 {
		fmt.Fprintf(&b, "\nDCASE partial evaluation:\n")
		for _, a := range r.Arms {
			fmt.Fprintf(&b, "  %6v  arm %d: %v\n", a.Pos, a.Arm, a.Verdict)
		}
	}
	if len(r.Conds) > 0 {
		fmt.Fprintf(&b, "\nIF-condition partial evaluation:\n")
		for _, c := range r.Conds {
			fmt.Fprintf(&b, "  %6v  %v\n", c.Pos, c.Verdict)
		}
	}
	fmt.Fprintf(&b, "\nfinal reaching sets:\n")
	names := make([]string, 0, len(r.Final))
	for n := range r.Final {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-8s %v\n", n, r.Final[n])
	}
	all := append(append([]sem.Diag{}, r.Unit.Diags...), r.Diags...)
	if len(all) > 0 {
		fmt.Fprintf(&b, "\ndiagnostics:\n")
		for _, d := range all {
			fmt.Fprintf(&b, "  %v\n", d)
		}
	}
	return b.String()
}
