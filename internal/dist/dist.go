// Package dist implements Vienna Fortran's distribution model (paper §2):
// distribution types built from the intrinsic distribution functions
// BLOCK, CYCLIC(k), S_BLOCK and B_BLOCK plus dimension elision ":",
// alignments between arrays (Definition 2) with the CONSTRUCT composition,
// and the distribution-type matching used by the DCASE construct and the
// IDT intrinsic (§2.5).
//
// A Type is a distribution expression such as (BLOCK, CYCLIC(3), :) — a
// *class* of distributions.  Applying a Type to an array's index domain
// and a processor-section target yields a Distribution (paper §2.2: "The
// application of a distribution type to a (data) array and a processor
// section yields a distribution").  A Distribution answers ownership
// queries: which processor owns element i, and which global indices does
// processor p own (as an index.Grid of strided runs, enabling
// communication schedules without per-element owner lookups).
package dist

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/index"
)

// Kind enumerates the per-dimension distribution functions of §2.2.
type Kind int

// Distribution kinds.
const (
	// Elided is the ":" — the dimension is not distributed.
	Elided Kind = iota
	// Block distributes in evenly sized contiguous segments.
	Block
	// Cyclic maps elements round-robin in blocks of K.
	Cyclic
	// SBlock is S_BLOCK(sizes): contiguous irregular blocks given by
	// per-processor segment sizes.
	SBlock
	// BBlock is B_BLOCK(bounds): contiguous irregular blocks given by
	// per-processor upper bounds (global indices), as used for the PIC
	// load balancing of §4.
	BBlock
)

func (k Kind) String() string {
	switch k {
	case Elided:
		return ":"
	case Block:
		return "BLOCK"
	case Cyclic:
		return "CYCLIC"
	case SBlock:
		return "S_BLOCK"
	case BBlock:
		return "B_BLOCK"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// DimSpec is one component of a distribution expression.
type DimSpec struct {
	Kind Kind
	// K is the block length for CYCLIC(K); CYCLIC means CYCLIC(1).
	K int
	// Phase shifts a CYCLIC distribution by Phase elements (owner of
	// index i is ((i-lo+Phase)/K) mod np).  It cannot be written in
	// source programs; it arises from deriving distributions through
	// offset alignments (CONSTRUCT, §2.1) and is ignored by type
	// matching.
	Phase int
	// Sizes holds the per-processor segment sizes for S_BLOCK.
	Sizes []int
	// Bounds holds the per-processor inclusive upper bounds for B_BLOCK.
	Bounds []int
}

// BlockDim returns a BLOCK specifier.
func BlockDim() DimSpec { return DimSpec{Kind: Block} }

// CyclicDim returns a CYCLIC(k) specifier; k <= 0 is normalized to 1.
func CyclicDim(k int) DimSpec {
	if k <= 0 {
		k = 1
	}
	return DimSpec{Kind: Cyclic, K: k}
}

// SBlockDim returns an S_BLOCK(sizes) specifier.
func SBlockDim(sizes ...int) DimSpec {
	cp := make([]int, len(sizes))
	copy(cp, sizes)
	return DimSpec{Kind: SBlock, Sizes: cp}
}

// BBlockDim returns a B_BLOCK(bounds) specifier.
func BBlockDim(bounds ...int) DimSpec {
	cp := make([]int, len(bounds))
	copy(cp, bounds)
	return DimSpec{Kind: BBlock, Bounds: cp}
}

// ElidedDim returns the ":" specifier.
func ElidedDim() DimSpec { return DimSpec{Kind: Elided} }

// Distributed reports whether the dimension consumes a processor
// dimension.
func (d DimSpec) Distributed() bool { return d.Kind != Elided }

func (d DimSpec) String() string {
	switch d.Kind {
	case Elided:
		return ":"
	case Block:
		return "BLOCK"
	case Cyclic:
		s := "CYCLIC"
		if normK(d.K) != 1 {
			s = fmt.Sprintf("CYCLIC(%d)", d.K)
		}
		if d.Phase != 0 {
			s += fmt.Sprintf("@%d", d.Phase)
		}
		return s
	case SBlock:
		return fmt.Sprintf("S_BLOCK%v", d.Sizes)
	case BBlock:
		return fmt.Sprintf("B_BLOCK%v", d.Bounds)
	}
	return d.Kind.String()
}

// Equal reports whether two specifiers denote the same per-dimension
// distribution (CYCLIC and CYCLIC(1) are equal).
func (d DimSpec) Equal(o DimSpec) bool {
	if d.Kind != o.Kind {
		return false
	}
	switch d.Kind {
	case Cyclic:
		return normK(d.K) == normK(o.K) && d.Phase == o.Phase
	case SBlock:
		return slices.Equal(d.Sizes, o.Sizes)
	case BBlock:
		return slices.Equal(d.Bounds, o.Bounds)
	}
	return true
}

func normK(k int) int {
	if k <= 0 {
		return 1
	}
	return k
}

// normPhase reduces the phase into [0, np*K).
func (d DimSpec) normPhase(np int) int {
	cyc := np * normK(d.K)
	return (d.Phase%cyc + cyc) % cyc
}

// validate checks the specifier against an array dimension of extent n
// starting at lo, distributed over np processors.
func (d DimSpec) validate(lo, n, np int) error {
	switch d.Kind {
	case Elided, Block, Cyclic:
		return nil
	case SBlock:
		if len(d.Sizes) != np {
			return fmt.Errorf("dist: S_BLOCK has %d sizes for %d processors", len(d.Sizes), np)
		}
		sum := 0
		for _, s := range d.Sizes {
			if s < 0 {
				return fmt.Errorf("dist: S_BLOCK negative size %d", s)
			}
			sum += s
		}
		if sum != n {
			return fmt.Errorf("dist: S_BLOCK sizes sum to %d, dimension extent is %d", sum, n)
		}
		return nil
	case BBlock:
		if len(d.Bounds) != np {
			return fmt.Errorf("dist: B_BLOCK has %d bounds for %d processors", len(d.Bounds), np)
		}
		prev := lo - 1
		for i, b := range d.Bounds {
			if b < prev {
				return fmt.Errorf("dist: B_BLOCK bounds not non-decreasing at %d", i)
			}
			prev = b
		}
		if d.Bounds[np-1] != lo+n-1 {
			return fmt.Errorf("dist: B_BLOCK last bound %d != dimension upper bound %d", d.Bounds[np-1], lo+n-1)
		}
		return nil
	}
	return fmt.Errorf("dist: unknown kind %v", d.Kind)
}

// segBounds returns the inclusive global segment [slo,shi] of processor
// coordinate p for block-family kinds.  For an empty segment shi < slo.
func (d DimSpec) segBounds(p, lo, n, np int) (slo, shi int) {
	switch d.Kind {
	case Block:
		bs := (n + np - 1) / np
		slo = lo + p*bs
		shi = lo + (p+1)*bs - 1
		if shi > lo+n-1 {
			shi = lo + n - 1
		}
		return slo, shi
	case SBlock:
		off := 0
		for i := 0; i < p; i++ {
			off += d.Sizes[i]
		}
		return lo + off, lo + off + d.Sizes[p] - 1
	case BBlock:
		if p == 0 {
			return lo, d.Bounds[0]
		}
		return d.Bounds[p-1] + 1, d.Bounds[p]
	}
	panic("dist: segBounds on non-block kind " + d.Kind.String())
}

// owner returns the processor coordinate owning global index i.
func (d DimSpec) owner(i, lo, n, np int) int {
	switch d.Kind {
	case Block:
		bs := (n + np - 1) / np
		return (i - lo) / bs
	case Cyclic:
		k := normK(d.K)
		return (((i - lo) + d.normPhase(np)) / k) % np
	case SBlock:
		off := i - lo
		for p := 0; p < np; p++ {
			off -= d.Sizes[p]
			if off < 0 {
				return p
			}
		}
		return np - 1
	case BBlock:
		// binary search smallest p with i <= Bounds[p]
		loP, hiP := 0, np-1
		for loP < hiP {
			mid := (loP + hiP) / 2
			if i <= d.Bounds[mid] {
				hiP = mid
			} else {
				loP = mid + 1
			}
		}
		return loP
	}
	panic("dist: owner on elided dimension")
}

// appendRuns appends the global indices owned by processor coordinate p
// to runs, in increasing order.  Block-family kinds own a single stride-1
// run (none when the block is empty); CYCLIC(k) owns up to k runs of
// stride np*k.
func (d DimSpec) appendRuns(runs []index.Run, p, lo, n, np int) []index.Run {
	hi := lo + n - 1
	switch d.Kind {
	case Block, SBlock, BBlock:
		if slo, shi := d.segBounds(p, lo, n, np); slo <= shi {
			runs = append(runs, index.NewRun(slo, shi, 1))
		}
		return runs
	case Cyclic:
		k := normK(d.K)
		ph := d.normPhase(np)
		cyc := np * k
		at := len(runs)
		for j := 0; j < k; j++ {
			// offsets off with (off+ph) ≡ p*k+j (mod np*k)
			startOff := ((p*k+j-ph)%cyc + cyc) % cyc
			if start := lo + startOff; start <= hi {
				runs = append(runs, index.NewRun(start, hi, cyc))
			}
		}
		slices.SortFunc(runs[at:], func(a, b index.Run) int { return a.Lo - b.Lo })
		return runs
	case Elided:
		return append(runs, index.NewRun(lo, hi, 1))
	}
	panic("dist: appendRuns unknown kind")
}

// Type is a distribution type: a list of per-dimension specifiers
// (paper §2.2, "distribution expression ... determines a class of
// distributions which is called a distribution type").
type Type struct {
	Dims []DimSpec
}

// NewType builds a Type from dimension specifiers.
func NewType(dims ...DimSpec) Type {
	return Type{Dims: dims}
}

// clone returns a deep copy of t in two allocations at most: the
// specifiers, and one array behind every S_BLOCK size and B_BLOCK bound.
// Only scalar fields are copied across, so t's storage does not escape.
func (t Type) clone() Type {
	n := 0
	for _, s := range t.Dims {
		n += len(s.Sizes) + len(s.Bounds)
	}
	ints := make([]int, 0, n)
	take := func(v []int) []int {
		if v == nil {
			return nil
		}
		at := len(ints)
		ints = append(ints, v...)
		return ints[at:len(ints):len(ints)]
	}
	dims := make([]DimSpec, len(t.Dims))
	for i, s := range t.Dims {
		dims[i] = DimSpec{Kind: s.Kind, K: s.K, Phase: s.Phase, Sizes: take(s.Sizes), Bounds: take(s.Bounds)}
	}
	return Type{Dims: dims}
}

// Rank returns the number of array dimensions the type applies to.
func (t Type) Rank() int { return len(t.Dims) }

// DistributedDims returns how many dimensions consume processor
// dimensions.
func (t Type) DistributedDims() int {
	n := 0
	for _, d := range t.Dims {
		if d.Distributed() {
			n++
		}
	}
	return n
}

// Equal reports whether two types are the same class of distributions.
func (t Type) Equal(o Type) bool {
	if len(t.Dims) != len(o.Dims) {
		return false
	}
	for i := range t.Dims {
		if !t.Dims[i].Equal(o.Dims[i]) {
			return false
		}
	}
	return true
}

func (t Type) String() string {
	parts := make([]string, len(t.Dims))
	for i, d := range t.Dims {
		parts[i] = d.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}
