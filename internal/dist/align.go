package dist

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/index"
)

// AxisMap describes how one dimension of the alignment *target* array B is
// derived from the indices of the *source* array A in an alignment
// specification (Definition 2: an index mapping α_A from I^A to I^B).
//
//	ALIGN A(I,J) WITH B(J, 2*I+1, 3)
//
// gives B three axis maps: {SrcDim:1}, {SrcDim:0, Stride:2, Offset:1} and
// {Const:true, ConstVal:3}.
type AxisMap struct {
	// SrcDim is the A dimension whose index forms this B coordinate
	// (B_j = Stride*A_i + Offset).  Ignored when Const.
	SrcDim int
	// Stride scales the source index; 0 is normalized to 1.
	Stride int
	// Offset shifts the source index.
	Offset int
	// Const marks a constant coordinate of value ConstVal.
	Const    bool
	ConstVal int
}

// Axis builds an identity axis map for source dimension i.
func Axis(i int) AxisMap { return AxisMap{SrcDim: i, Stride: 1} }

// AxisAffine builds B_j = stride*A_i + offset.
func AxisAffine(i, stride, offset int) AxisMap {
	return AxisMap{SrcDim: i, Stride: stride, Offset: offset}
}

// AxisConst builds a constant coordinate.
func AxisConst(v int) AxisMap { return AxisMap{Const: true, ConstVal: v} }

func (a AxisMap) stride() int {
	if a.Stride == 0 {
		return 1
	}
	return a.Stride
}

func (a AxisMap) String() string {
	if a.Const {
		return fmt.Sprint(a.ConstVal)
	}
	v := fmt.Sprintf("i%d", a.SrcDim+1)
	if s := a.stride(); s != 1 {
		v = fmt.Sprintf("%d*%s", s, v)
	}
	if a.Offset > 0 {
		v += fmt.Sprintf("+%d", a.Offset)
	} else if a.Offset < 0 {
		v += fmt.Sprint(a.Offset)
	}
	return v
}

// Alignment is a complete index mapping I^A → I^B: one AxisMap per B
// dimension.
type Alignment struct {
	Maps []AxisMap
}

// NewAlignment builds an alignment from per-target-dimension axis maps.
func NewAlignment(maps ...AxisMap) Alignment {
	return Alignment{Maps: maps}
}

// Identity returns the identity alignment for the given rank.
func Identity(rank int) Alignment {
	maps := make([]AxisMap, rank)
	for i := range maps {
		maps[i] = Axis(i)
	}
	return Alignment{Maps: maps}
}

// Transpose2D returns the alignment A(I,J) WITH B(J,I) (Example 1 of the
// paper uses the 3-D variant D(I,J,K) WITH C(J,I,K)).
func Transpose2D() Alignment {
	return NewAlignment(Axis(1), Axis(0))
}

// Validate checks that the alignment maps every point of aDom into bDom
// and that each source dimension is referenced at most once.
func (al Alignment) Validate(aDom, bDom index.Domain) error {
	if len(al.Maps) != bDom.Rank() {
		return fmt.Errorf("dist: alignment has %d axis maps, target rank is %d", len(al.Maps), bDom.Rank())
	}
	seen := make([]bool, aDom.Rank())
	for j, m := range al.Maps {
		if m.Const {
			if m.ConstVal < bDom.Lo[j] || m.ConstVal > bDom.Hi[j] {
				return fmt.Errorf("dist: alignment constant %d outside target dim %d bounds %d:%d", m.ConstVal, j+1, bDom.Lo[j], bDom.Hi[j])
			}
			continue
		}
		if m.SrcDim < 0 || m.SrcDim >= aDom.Rank() {
			return fmt.Errorf("dist: alignment references source dim %d of rank-%d array", m.SrcDim+1, aDom.Rank())
		}
		if seen[m.SrcDim] {
			return fmt.Errorf("dist: source dimension %d referenced twice in alignment", m.SrcDim+1)
		}
		seen[m.SrcDim] = true
		s := m.stride()
		if s <= 0 {
			return fmt.Errorf("dist: alignment stride %d not positive (dim %d)", s, j+1)
		}
		loImg := s*aDom.Lo[m.SrcDim] + m.Offset
		hiImg := s*aDom.Hi[m.SrcDim] + m.Offset
		if loImg < bDom.Lo[j] || hiImg > bDom.Hi[j] {
			return fmt.Errorf("dist: alignment image %d:%d of source dim %d outside target dim %d bounds %d:%d",
				loImg, hiImg, m.SrcDim+1, j+1, bDom.Lo[j], bDom.Hi[j])
		}
	}
	return nil
}

func (al Alignment) String() string {
	parts := make([]string, len(al.Maps))
	for j, m := range al.Maps {
		parts[j] = m.String()
	}
	return "WITH (" + strings.Join(parts, ",") + ")"
}

// Construct realizes the paper's CONSTRUCT(α_A, δ_B) (§2.1): given the
// distribution of B and an alignment of A with B, derive A's distribution
// so that δ_A(i) = δ_B(α_A(i)) — aligned elements are guaranteed to
// reside on the same processors.  Each axis follows alignedKind; the
// derivation is exact: a B_BLOCK axis takes the preimages of B's segment
// bounds, a CYCLIC axis B's block length with its phase shifted by the
// offset, and a constant axis pins B's owning coordinate.
func Construct(al Alignment, bDist *Distribution, aDom index.Domain) (*Distribution, error) {
	bDom := bDist.Domain()
	if err := al.Validate(aDom, bDom); err != nil {
		return nil, err
	}
	specs := make([]DimSpec, aDom.Rank())
	procDim := make([]int, aDom.Rank())
	for i := range specs {
		specs[i] = ElidedDim()
		procDim[i] = -1
	}
	fixed := make([]int, bDist.Target().NDims())
	for td := range fixed {
		fixed[td] = bDist.fixed[td] // inherit pins of B itself
	}
	for j, m := range al.Maps {
		bSpec := bDist.typ.Dims[j]
		td := bDist.procDim[j]
		if m.Const {
			if td >= 0 {
				fixed[td] = bDist.OwnerCoord(j, m.ConstVal)
			}
			continue
		}
		kind, err := alignedKind(m, j, bSpec.Kind)
		if err != nil {
			return nil, err
		}
		s, o := m.stride(), m.Offset
		aLo, aHi := aDom.Lo[m.SrcDim], aDom.Hi[m.SrcDim]
		switch kind {
		case Elided:
			continue // A's source dim stays elided: locality unconstrained
		case BBlock:
			np := bDist.target.Extent(td)
			bounds := make([]int, np)
			for p := 0; p < np; p++ {
				_, shi := bSpec.segBounds(p, bDom.Lo[j], bDom.Extent(j), np)
				// preimage upper bound: largest x with s*x+o <= shi
				bounds[p] = min(max(floorDiv(shi-o, s), aLo-1), aHi)
			}
			bounds[np-1] = aHi
			specs[m.SrcDim] = DimSpec{Kind: BBlock, Bounds: bounds}
		case Cyclic:
			specs[m.SrcDim] = DimSpec{Kind: Cyclic, K: normK(bSpec.K),
				Phase: bSpec.normPhase(bDist.target.Extent(td)) + (aLo + o - bDom.Lo[j])}
		}
		procDim[m.SrcDim] = td
	}
	typ := NewType(specs...)
	return newBound(typ, aDom, bDist.target, procDim, fixed)
}

// alignedKind is CONSTRUCT's rule for one axis: the kind A's source
// dimension takes from target dimension j of B, of kind k, that the
// non-constant axis m maps it to.  An affine axis over a block-family
// dimension gives B_BLOCK, identity included: §2.1 asks only that
// δ_A(i) = δ_B(α_A(i)), and a preimage of BLOCK segments is a general
// block whatever the axis.  A stride-1 axis over CYCLIC(K) stays
// CYCLIC(K); a stride over CYCLIC is refused, since its owners repeat
// with a period no per-dimension specifier expresses.  An elided
// dimension leaves its source dimension elided, like a source dimension
// no axis references.
func alignedKind(m AxisMap, j int, k Kind) (Kind, error) {
	switch k {
	case Elided:
		return Elided, nil
	case Block, SBlock, BBlock:
		return BBlock, nil
	case Cyclic:
		if s := m.stride(); s != 1 {
			return 0, fmt.Errorf("dist: alignment stride %d over CYCLIC dimension %d not supported", s, j+1)
		}
		return Cyclic, nil
	}
	return 0, fmt.Errorf("dist: cannot derive through %v dimension", k)
}

// ConstructPattern is Construct on abstract types, the form the §3.1
// analysis needs: the pattern that every distribution Construct derives
// through al, for a rank-rank array, from a distribution of type b
// matches.  A "*" dimension of b, or a b of another rank than al, leaves
// its source dimensions "*".  Where alignedKind refuses an axis the
// source dimension widens to "*" and the refusal is returned beside the
// pattern: the run would stop there.
func ConstructPattern(al Alignment, b Pattern, rank int) (Pattern, error) {
	dims := make([]DimPattern, rank)
	if b.Any || len(b.Dims) != len(al.Maps) {
		for i := range dims {
			dims[i] = PAny()
		}
		return NewPattern(dims...), nil
	}
	for i := range dims {
		dims[i] = PElided() // unless an axis references it
	}
	var err error
	for j, m := range al.Maps {
		d := b.Dims[j]
		if m.Const {
			continue
		}
		if d.Any {
			dims[m.SrcDim] = PAny()
			continue
		}
		switch kind, e := alignedKind(m, j, d.Kind); {
		case e != nil:
			dims[m.SrcDim] = PAny()
			err = cmp.Or(err, e)
		case kind == BBlock:
			dims[m.SrcDim] = PBBlock() // its bounds are the run's
		case kind == Cyclic:
			dims[m.SrcDim] = d // K kept; the phase is invisible to a query
		}
	}
	return NewPattern(dims...), err
}

// Extract realizes distribution extraction "CONNECT (=B)" (§2.3): apply
// B's distribution *type* to A's own index domain on the same target.
// Ranks must agree; irregular specifiers must validate against A's
// extents.
func Extract(bDist *Distribution, aDom index.Domain) (*Distribution, error) {
	if bDist.Domain().Rank() != aDom.Rank() {
		return nil, fmt.Errorf("dist: extraction rank mismatch: %d vs %d", bDist.Domain().Rank(), aDom.Rank())
	}
	return newBound(bDist.typ, aDom, bDist.target, bDist.procDim, bDist.fixed)
}

// floorDiv is floor(a/b) for b > 0.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
