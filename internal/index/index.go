// Package index provides index domains, points, regular sections and an
// arithmetic-progression ("strided run") algebra for the Vienna Fortran
// runtime.
//
// Vienna Fortran models a distribution as an index mapping from an array's
// index domain I^A to the index domain of a processor array (paper §2.1,
// Definition 1).  Every structure in this package is a set of global array
// indices: a Domain is the whole index space of an array, a Section is a
// regular (triplet) subset, a Run is a one-dimensional arithmetic
// progression, a RunSet is a union of disjoint Runs, and a Grid is a
// cartesian product of per-dimension RunSets.  Ownership sets of all Vienna
// Fortran intrinsic distributions (BLOCK, CYCLIC(k), S_BLOCK, B_BLOCK) are
// exactly representable as Grids, which is what makes redistribution
// schedules computable by per-dimension intersection instead of per-element
// owner lookups.
//
// Index domains follow Fortran conventions: bounds are inclusive and arrays
// are stored column-major (leftmost subscript varies fastest).
package index

import (
	"fmt"
	"strings"
)

// Point is a multi-dimensional index.  Its length is the rank.
type Point []int

// Clone returns a copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

func (p Point) String() string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = fmt.Sprint(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Domain is a rectangular index domain with inclusive per-dimension bounds,
// e.g. the I^A of paper §2.1.  A REAL A(10,20) has Domain{Lo:[1,1],
// Hi:[10,20]}.
type Domain struct {
	Lo []int
	Hi []int
}

// NewDomain builds a domain from (lo,hi) bound pairs.
func NewDomain(bounds ...[2]int) Domain {
	d := Domain{Lo: make([]int, len(bounds)), Hi: make([]int, len(bounds))}
	for i, b := range bounds {
		d.Lo[i] = b[0]
		d.Hi[i] = b[1]
	}
	return d
}

// Dim builds the Fortran-default domain 1:n1, 1:n2, ... for the given
// extents.
func Dim(extents ...int) Domain {
	d := Domain{Lo: make([]int, len(extents)), Hi: make([]int, len(extents))}
	for i, n := range extents {
		d.Lo[i] = 1
		d.Hi[i] = n
	}
	return d
}

// Rank returns the number of dimensions.
func (d Domain) Rank() int { return len(d.Lo) }

// Extent returns the number of valid indices along dimension k.
func (d Domain) Extent(k int) int { return d.Hi[k] - d.Lo[k] + 1 }

// Size returns the total number of points in the domain.
func (d Domain) Size() int {
	if d.Rank() == 0 {
		return 0
	}
	n := 1
	for k := range d.Lo {
		e := d.Extent(k)
		if e <= 0 {
			return 0
		}
		n *= e
	}
	return n
}

// Contains reports whether p lies inside the domain.
func (d Domain) Contains(p Point) bool {
	if len(p) != d.Rank() {
		return false
	}
	for k, v := range p {
		if v < d.Lo[k] || v > d.Hi[k] {
			return false
		}
	}
	return true
}

// Equal reports whether two domains have identical bounds.
func (d Domain) Equal(e Domain) bool {
	if d.Rank() != e.Rank() {
		return false
	}
	for k := range d.Lo {
		if d.Lo[k] != e.Lo[k] || d.Hi[k] != e.Hi[k] {
			return false
		}
	}
	return true
}

// Offset returns the column-major linear offset of p within the domain.
// The first dimension varies fastest, matching Fortran storage order.
func (d Domain) Offset(p Point) int {
	off := 0
	mult := 1
	for k := 0; k < d.Rank(); k++ {
		off += (p[k] - d.Lo[k]) * mult
		mult *= d.Extent(k)
	}
	return off
}

// At returns the point at column-major linear offset off.
func (d Domain) At(off int) Point {
	p := make(Point, d.Rank())
	for k := 0; k < d.Rank(); k++ {
		e := d.Extent(k)
		p[k] = d.Lo[k] + off%e
		off /= e
	}
	return p
}

// WholeSection returns the section covering the entire domain with stride 1.
func (d Domain) WholeSection() Section {
	s := Section{Lo: make([]int, d.Rank()), Hi: make([]int, d.Rank()), Stride: make([]int, d.Rank())}
	copy(s.Lo, d.Lo)
	copy(s.Hi, d.Hi)
	for k := range s.Stride {
		s.Stride[k] = 1
	}
	return s
}

func (d Domain) String() string {
	parts := make([]string, d.Rank())
	for k := range d.Lo {
		parts[k] = fmt.Sprintf("%d:%d", d.Lo[k], d.Hi[k])
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// Section is a regular array section given by per-dimension triplets
// lo:hi:stride with inclusive bounds, as in Fortran 90 section notation.
type Section struct {
	Lo     []int
	Hi     []int
	Stride []int
}

// NewSection builds a section from (lo,hi,stride) triplets.
func NewSection(triplets ...[3]int) Section {
	s := Section{Lo: make([]int, len(triplets)), Hi: make([]int, len(triplets)), Stride: make([]int, len(triplets))}
	for i, t := range triplets {
		s.Lo[i] = t[0]
		s.Hi[i] = t[1]
		st := t[2]
		if st == 0 {
			st = 1
		}
		s.Stride[i] = st
	}
	return s
}

// Rank returns the number of dimensions of the section.
func (s Section) Rank() int { return len(s.Lo) }

// DimCount returns the number of selected indices along dimension k.
func (s Section) DimCount(k int) int {
	if s.Hi[k] < s.Lo[k] {
		return 0
	}
	return (s.Hi[k]-s.Lo[k])/s.Stride[k] + 1
}

// Size returns the number of points the section selects.
func (s Section) Size() int {
	if s.Rank() == 0 {
		return 0
	}
	n := 1
	for k := range s.Lo {
		n *= s.DimCount(k)
	}
	return n
}

// ForEach calls f for every point of the section in column-major order
// (first dimension fastest).  Iteration stops early if f returns false.
func (s Section) ForEach(f func(Point) bool) {
	if s.Size() == 0 {
		return
	}
	p := make(Point, s.Rank())
	copy(p, s.Lo)
	for {
		if !f(p) {
			return
		}
		k := 0
		for k < s.Rank() {
			p[k] += s.Stride[k]
			if p[k] <= s.Hi[k] {
				break
			}
			p[k] = s.Lo[k]
			k++
		}
		if k == s.Rank() {
			return
		}
	}
}

func (s Section) String() string {
	parts := make([]string, s.Rank())
	for k := range s.Lo {
		if s.Stride[k] == 1 {
			parts[k] = fmt.Sprintf("%d:%d", s.Lo[k], s.Hi[k])
		} else {
			parts[k] = fmt.Sprintf("%d:%d:%d", s.Lo[k], s.Hi[k], s.Stride[k])
		}
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// lastOn returns the largest value <= hi reachable from lo with the given
// stride, or lo-stride if the run is empty.
func lastOn(lo, hi, stride int) int {
	if hi < lo {
		return lo - stride
	}
	return lo + ((hi-lo)/stride)*stride
}
