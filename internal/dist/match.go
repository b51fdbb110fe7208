package dist

import (
	"slices"
	"strings"
)

// DimPattern matches one dimension of a distribution type in a query
// (paper §2.5: queries in DCASE condition lists, arguments of IDT, and
// the members of a RANGE annotation).  "*" wildcards appear at two
// levels: a whole-dimension wildcard (Any) and a parameter wildcard
// (AnyParam, as in CYCLIC(*)).
type DimPattern struct {
	// Any matches any per-dimension distribution ("*").
	Any bool
	// Kind must match when Any is false.
	Kind Kind
	// AnyParam accepts any parameter for the kind (CYCLIC(*)).
	AnyParam bool
	// K is the CYCLIC block length to match (when !AnyParam).
	K int
	// Sizes/Bounds, when non-nil, require exact irregular parameters.
	Sizes  []int
	Bounds []int
}

// PAny returns the "*" dimension pattern.
func PAny() DimPattern { return DimPattern{Any: true} }

// PBlock matches BLOCK.
func PBlock() DimPattern { return DimPattern{Kind: Block} }

// PCyclic matches CYCLIC(k) exactly (k<=0 means CYCLIC(1)).
func PCyclic(k int) DimPattern { return DimPattern{Kind: Cyclic, K: normK(k)} }

// PCyclicAny matches CYCLIC with any block length — CYCLIC(*).
func PCyclicAny() DimPattern { return DimPattern{Kind: Cyclic, AnyParam: true} }

// PElided matches ":".
func PElided() DimPattern { return DimPattern{Kind: Elided} }

// PSBlock matches any S_BLOCK (parameters ignored).
func PSBlock() DimPattern { return DimPattern{Kind: SBlock, AnyParam: true} }

// PBBlock matches any B_BLOCK (parameters ignored).
func PBBlock() DimPattern { return DimPattern{Kind: BBlock, AnyParam: true} }

// MatchesDim reports whether the pattern accepts the specifier.
func (p DimPattern) MatchesDim(d DimSpec) bool {
	if p.Any {
		return true
	}
	if p.Kind != d.Kind {
		return false
	}
	switch p.Kind {
	case Cyclic:
		return p.AnyParam || normK(p.K) == normK(d.K)
	case SBlock:
		return p.AnyParam || p.Sizes == nil || slices.Equal(p.Sizes, d.Sizes)
	case BBlock:
		return p.AnyParam || p.Bounds == nil || slices.Equal(p.Bounds, d.Bounds)
	}
	return true
}

func (p DimPattern) String() string {
	if p.Any {
		return "*"
	}
	switch p.Kind {
	case Cyclic:
		if p.AnyParam {
			return "CYCLIC(*)"
		}
		return DimSpec{Kind: Cyclic, K: p.K}.String()
	case SBlock:
		if p.AnyParam || p.Sizes == nil {
			return "S_BLOCK(*)"
		}
		return DimSpec{Kind: SBlock, Sizes: p.Sizes}.String()
	case BBlock:
		if p.AnyParam || p.Bounds == nil {
			return "B_BLOCK(*)"
		}
		return DimSpec{Kind: BBlock, Bounds: p.Bounds}.String()
	}
	return p.Kind.String()
}

// Pattern matches a whole distribution type.
type Pattern struct {
	// Any matches every distribution type (the "*" query).
	Any bool
	// Dims are per-dimension patterns.  A pattern with fewer dimensions
	// than the queried type is padded with implicit "*" (the paper's
	// IDT(B3,(BLOCK(*))) idiom, where only the leading dimensions are
	// constrained); more dimensions than the type never match.
	Dims []DimPattern
}

// NewPattern builds a pattern from dimension patterns.
func NewPattern(dims ...DimPattern) Pattern { return Pattern{Dims: dims} }

// AnyPattern returns the whole-type wildcard.
func AnyPattern() Pattern { return Pattern{Any: true} }

// PatternOf converts a concrete type into the pattern matching exactly
// that type.
func PatternOf(t Type) Pattern {
	dims := make([]DimPattern, t.Rank())
	for i, d := range t.Dims {
		switch d.Kind {
		case Cyclic:
			dims[i] = PCyclic(d.K)
		case SBlock:
			dims[i] = DimPattern{Kind: SBlock, Sizes: d.Sizes}
		case BBlock:
			dims[i] = DimPattern{Kind: BBlock, Bounds: d.Bounds}
		default:
			dims[i] = DimPattern{Kind: d.Kind}
		}
	}
	return Pattern{Dims: dims}
}

// Matches reports whether the pattern accepts the distribution type.
func (p Pattern) Matches(t Type) bool {
	if p.Any {
		return true
	}
	if len(p.Dims) > t.Rank() {
		return false
	}
	for i, dp := range p.Dims {
		if !dp.MatchesDim(t.Dims[i]) {
			return false
		}
	}
	return true
}

func (p Pattern) String() string {
	if p.Any {
		return "*"
	}
	parts := make([]string, len(p.Dims))
	for i, d := range p.Dims {
		parts[i] = d.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Range is a distribution range (the RANGE annotation of §2.3): the set
// of distribution types that may be associated with a dynamic array.  A
// nil/empty Range imposes no restriction ("If no distribution range is
// specified, then there is no restriction").
type Range []Pattern

// Allows reports whether the type is permitted by the range.
func (r Range) Allows(t Type) bool {
	if len(r) == 0 {
		return true
	}
	for _, p := range r {
		if p.Matches(t) {
			return true
		}
	}
	return false
}

func (r Range) String() string {
	if len(r) == 0 {
		return "RANGE(*)"
	}
	parts := make([]string, len(r))
	for i, p := range r {
		parts[i] = p.String()
	}
	return "RANGE(" + strings.Join(parts, ", ") + ")"
}
