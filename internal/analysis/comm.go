package analysis

// Communication analysis — the companion pass §3.1 mentions: "An
// extensive communication analysis provides not only information on the
// communication associated with each plausible distribution for an
// array, but also the memory requirements of the array under that
// distribution."  (The paper defers details to the compiler literature;
// this implements the classic overlap analysis of Gerndt [7] plus the
// irregular-access detection that triggers the inspector/executor
// paradigm [10, 15].)
//
// The pass walks no statements itself: Analyze's recording walk keeps
// every assignment it reaches, with the enclosing DO/FORALL induction
// variables and the reaching state there (DCASE and IDT refinements
// applied, dead arms skipped).  For each owner-computes assignment, each
// right-hand-side array reference is classified against the left-hand
// side's iteration space, per plausible distribution of the referenced
// array in that state:
//
//	Local      — the reference is owner-local under the distribution
//	             (the subscript driving each distributed dimension is the
//	             same induction variable as the LHS's, with zero offset);
//	Shift(d,w) — nearest-neighbour offset w along dimension d: satisfied
//	             by an overlap area of width |w| and one exchange per
//	             sweep (the smoothing pattern of §4);
//	Transpose  — a distributed dimension is driven by a different
//	             induction variable than the LHS's: satisfied only by
//	             all-to-all communication or a redistribution (the ADI
//	             y-sweep pattern of §4);
//	Broadcast  — a distributed dimension has a loop-invariant subscript:
//	             one owner's section is read by all iterations;
//	Irregular  — a subscript contains an array reference (A(IDX(I))):
//	             requires translation tables and an inspector/executor
//	             (the PIC reassignment pattern of §4).
//
// The pass also estimates each array's per-processor memory requirement
// under each plausible distribution, including the overlap areas implied
// by the Shift classifications made under that distribution — the
// "memory requirements" §3.1 speaks of.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dist"
	"repro/internal/lang"
	"repro/internal/sem"
)

// CommKind classifies one reference's communication requirement.
type CommKind int

// Communication kinds, ordered by severity (bump() relies on the order):
// local < shift < broadcast < transpose < irregular < unknown.
const (
	CommLocal CommKind = iota
	CommShift
	CommBroadcast
	CommTranspose
	CommIrregular
	CommUnknown
)

func (k CommKind) String() string {
	switch k {
	case CommLocal:
		return "local"
	case CommShift:
		return "shift"
	case CommTranspose:
		return "transpose/redistribute"
	case CommBroadcast:
		return "broadcast"
	case CommIrregular:
		return "irregular (inspector/executor)"
	}
	return "unknown"
}

// CommInfo is the classification of one RHS reference under one plausible
// distribution of the referenced array.
type CommInfo struct {
	Pos   lang.Pos
	Array string
	Under AbsDist // the plausible distribution this verdict is for
	Kind  CommKind
	// Dim / Width describe Shift (0-based dimension, absolute offset).
	Dim   int
	Width int
}

func (c CommInfo) String() string {
	s := fmt.Sprintf("%s under %v: %v", c.Array, c.Under, c.Kind)
	if c.Kind == CommShift {
		s += fmt.Sprintf(" dim %d width %d", c.Dim+1, c.Width)
	}
	return s
}

// MemEstimate is the per-processor memory requirement of one array under
// one plausible distribution.
type MemEstimate struct {
	Array string
	Under AbsDist
	// Elems is the dense local element count (ceil of extents over the
	// assumed processor counts), Ghost the additional overlap elements.
	Elems int
	Ghost int
	Bytes int
}

// CommResult extends an analysis Result with the communication pass.
type CommResult struct {
	Infos []CommInfo
	Mems  []MemEstimate
}

// AnalyzeComm classifies the assignments Analyze's walk recorded, each
// under the reaching sets that walk computed for it.  np is the processor
// count assumed for memory estimates (per distributed dimension the
// estimate divides by the per-dimension factor of an even split).
func AnalyzeComm(r *Result, np int) *CommResult {
	c := &commPass{res: r, out: &CommResult{}, np: np, ghost: map[ghostKey][]int{}}
	for _, s := range r.sites {
		c.assign(s)
	}
	c.memory()
	return c.out
}

type commPass struct {
	res *Result
	out *CommResult
	np  int
	// ghost accumulates the max shift width per dim of an array under
	// one plausible distribution.
	ghost map[ghostKey][]int
}

type ghostKey struct{ array, under string }

// subscriptShape classifies one subscript expression.
type subscriptShape struct {
	kind    CommKind // Local (affine), Broadcast (const), Irregular, Unknown
	varName string   // induction variable for affine subscripts
	offset  int
}

func (c *commPass) shape(e lang.Expr, loops []string) subscriptShape {
	if len(collectArrayRefs(e, c.res.Unit, nil)) > 0 {
		return subscriptShape{kind: CommIrregular}
	}
	if name, stride, off, ok := c.res.Unit.AffineOf(e, loops); ok {
		if name == "" {
			return subscriptShape{kind: CommBroadcast, offset: off}
		}
		if stride == 1 {
			return subscriptShape{kind: CommLocal, varName: name, offset: off}
		}
		return subscriptShape{kind: CommUnknown}
	}
	// loop-invariant scalar expression: broadcast-like
	if isLoopInvariant(e, loops) {
		return subscriptShape{kind: CommBroadcast}
	}
	return subscriptShape{kind: CommUnknown}
}

func isLoopInvariant(e lang.Expr, loopNames []string) bool {
	switch ex := e.(type) {
	case *lang.IntLit:
		return true
	case *lang.Ref:
		if ex.Indices != nil {
			return false
		}
		for _, n := range loopNames {
			if ex.Name == n {
				return false
			}
		}
		return true
	case *lang.BinExpr:
		return isLoopInvariant(ex.L, loopNames) && isLoopInvariant(ex.R, loopNames)
	case *lang.UnExpr:
		return isLoopInvariant(ex.X, loopNames)
	}
	return false
}

// assign classifies every RHS array reference of an owner-computes
// assignment A(subscripts) = expr.
func (c *commPass) assign(s site) {
	u := c.res.Unit
	lhs := s.stm.LHS
	if _, ok := u.Arrays[lhs.Name]; !ok || lhs.Indices == nil {
		return // scalar assignment: no owner-computes placement
	}
	// where does each induction variable appear on the LHS?
	lhsDimOf := map[string]int{}
	lhsOffset := map[string]int{}
	for d, ix := range lhs.Indices {
		sh := c.shape(ix, s.loops)
		if sh.kind == CommLocal {
			lhsDimOf[sh.varName] = d
			lhsOffset[sh.varName] = sh.offset
		}
	}
	for _, ref := range collectArrayRefs(s.stm.RHS, u, nil) {
		for _, t := range s.st[ref.Name] {
			info := c.classify(ref, t, s.loops, lhsDimOf, lhsOffset)
			info.Pos = ref.Pos()
			info.Array = ref.Name
			info.Under = t
			c.out.Infos = append(c.out.Infos, info)
			if info.Kind == CommShift {
				c.noteGhost(ref.Name, t, info.Dim, info.Width)
			}
		}
	}
}

// collectArrayRefs appends e's subscripted references to declared arrays
// to out, outermost first.
func collectArrayRefs(e lang.Expr, u *sem.Unit, out []*lang.Ref) []*lang.Ref {
	switch ex := e.(type) {
	case *lang.Ref:
		if _, ok := u.Arrays[ex.Name]; ok && ex.Indices != nil {
			out = append(out, ex)
		}
		for _, ix := range ex.Indices {
			out = collectArrayRefs(ix, u, out)
		}
	case *lang.BinExpr:
		out = collectArrayRefs(ex.R, u, collectArrayRefs(ex.L, u, out))
	case *lang.UnExpr:
		out = collectArrayRefs(ex.X, u, out)
	}
	return out
}

// classify determines the dominant communication kind of one reference
// under one plausible distribution.  Severity order: irregular >
// transpose > broadcast > shift > local.
func (c *commPass) classify(ref *lang.Ref, t AbsDist, loops []string, lhsDimOf, lhsOffset map[string]int) CommInfo {
	info := CommInfo{Kind: CommLocal}
	bump := func(k CommKind) {
		if k > info.Kind && !(info.Kind == CommIrregular) {
			// order of the enum matches severity except Unknown; treat
			// Unknown as transpose-severity (conservative)
			info.Kind = k
		}
	}
	if t.Type.Any {
		info.Kind = CommUnknown
		return info
	}
	for d, ix := range ref.Indices {
		var pat dist.DimPattern
		if d < len(t.Type.Dims) {
			pat = t.Type.Dims[d]
		} else {
			pat = dist.PAny()
		}
		distributed := !(pat.Kind == dist.Elided && !pat.Any)
		sh := c.shape(ix, loops)
		if sh.kind == CommIrregular {
			if distributed {
				info.Kind = CommIrregular
				return info
			}
			continue // irregular subscript on a local dimension is free
		}
		if !distributed {
			continue
		}
		switch sh.kind {
		case CommLocal:
			lhsDim, drivesLHS := lhsDimOf[sh.varName]
			switch {
			case !drivesLHS:
				// the RHS dimension iterates over a variable that does
				// not place the LHS: every owner needs every value
				bump(CommTranspose)
			case lhsDim != d:
				// same variable, different dimension position: the
				// classic transpose access V(I,J) = U(J,I)
				bump(CommTranspose)
			default:
				delta := sh.offset - lhsOffset[sh.varName]
				if delta == 0 {
					// aligned: local under identical distributions
					continue
				}
				switch pat.Kind {
				case dist.Block, dist.SBlock, dist.BBlock:
					if info.Kind <= CommShift {
						info.Kind = CommShift
						if abs(delta) > info.Width {
							info.Dim, info.Width = d, abs(delta)
						}
					}
				default:
					// a shifted CYCLIC dimension has no useful overlap:
					// nearly every element's neighbour is remote
					bump(CommTranspose)
				}
			}
		case CommBroadcast:
			bump(CommBroadcast)
		default:
			bump(CommUnknown)
		}
	}
	return info
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (c *commPass) noteGhost(array string, t AbsDist, dim, width int) {
	k := ghostKey{array, t.key()}
	g := c.ghost[k]
	if g == nil {
		g = make([]int, c.res.Unit.Arrays[array].Rank)
		c.ghost[k] = g
	}
	if dim < len(g) && width > g[dim] {
		g[dim] = width
	}
}

// memory estimates per-processor storage for every array under every
// plausible distribution that reached one of its references (plus the
// final state), including the overlap areas the Shift classifications
// imply.
func (c *commPass) memory() {
	u := c.res.Unit
	seen := map[string]map[string]AbsDist{}
	add := func(name string, t AbsDist) {
		if seen[name] == nil {
			seen[name] = map[string]AbsDist{}
		}
		seen[name][t.key()] = t
	}
	for _, ref := range c.res.Refs {
		for _, t := range ref.Set {
			add(ref.Array, t)
		}
	}
	for name, set := range c.res.Final {
		for _, t := range set {
			add(name, t)
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		ai := u.Arrays[name]
		if ai == nil {
			continue
		}
		keys := make([]string, 0, len(seen[name]))
		for k := range seen[name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			t := seen[name][k]
			est := c.estimate(ai, t)
			c.out.Mems = append(c.out.Mems, est)
		}
	}
}

func (c *commPass) estimate(ai *sem.ArrayInfo, t AbsDist) MemEstimate {
	est := MemEstimate{Array: ai.Name, Under: t}
	// per-dimension processor factors: split np over the distributed dims
	distributedDims := 0
	if !t.Type.Any {
		for _, d := range t.Type.Dims {
			if d.Any || d.Kind != dist.Elided {
				distributedDims++
			}
		}
	}
	factors := make([]int, ai.Rank)
	for i := range factors {
		factors[i] = 1
	}
	if distributedDims > 0 {
		per := c.np
		if distributedDims > 1 {
			// near-square split
			q := 1
			for f := 1; f*f <= c.np; f++ {
				if c.np%f == 0 {
					q = f
				}
			}
			per = q
		}
		rest := c.np
		di := 0
		if !t.Type.Any {
			for i, d := range t.Type.Dims {
				if i >= ai.Rank {
					break
				}
				if d.Any || d.Kind != dist.Elided {
					if di == distributedDims-1 {
						factors[i] = rest
					} else {
						factors[i] = per
						rest = c.np / per
					}
					di++
				}
			}
		}
	}
	local := make([]int, ai.Rank)
	elems := 1
	for i := 0; i < ai.Rank; i++ {
		ext := ai.Extents[i]
		if ext < 0 {
			ext = 0 // unknown extent: report zero rather than guess
		}
		local[i] = (ext + factors[i] - 1) / factors[i]
		elems *= local[i]
	}
	est.Elems = elems
	for i, w := range c.ghost[ghostKey{ai.Name, t.key()}] {
		slab := 1
		for j, l := range local {
			if j != i {
				slab *= l
			}
		}
		est.Ghost += 2 * w * slab
	}
	est.Bytes = 8 * (est.Elems + est.Ghost)
	return est
}

// Report renders the communication analysis as text.
func (cr *CommResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "communication requirements at references (per plausible distribution):\n")
	for _, i := range cr.Infos {
		fmt.Fprintf(&b, "  %6v  %v\n", i.Pos, i)
	}
	fmt.Fprintf(&b, "\nper-processor memory requirements:\n")
	for _, m := range cr.Mems {
		fmt.Fprintf(&b, "  %-8s under %-24v %7d elems + %5d ghost = %8d bytes\n",
			m.Array, m.Under, m.Elems, m.Ghost, m.Bytes)
	}
	return b.String()
}
