package machine

import (
	"fmt"
	"sync"

	"repro/internal/index"
)

// ProcArray is a named, possibly multi-dimensional arrangement of the
// machine's processors — the PROCESSORS declaration of §2.2:
//
//	PROCESSORS R(1:M,1:M)
//
// Processor coordinates map to transport ranks in column-major order
// (Fortran convention), starting at rank 0.  A machine may declare several
// processor arrays; they all view the same physical processors.
type ProcArray struct {
	name string
	dom  index.Domain

	coordsOnce sync.Once
	coordsTab  []index.Point // rank -> coordinates, built lazily

	wholeOnce sync.Once
	whole     *ProcSection
}

// Procs declares (or retrieves, if already declared with identical shape)
// a processor array.  The product of extents must not exceed the machine
// size; it may be smaller, in which case high ranks hold no data.
func (m *Machine) Procs(name string, bounds ...[2]int) *ProcArray {
	dom := index.NewDomain(bounds...)
	if dom.Size() == 0 || dom.Size() > m.np {
		panic(fmt.Sprintf("machine: processor array %s%v needs %d processors, machine has %d",
			name, bounds, dom.Size(), m.np))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.procs[name]; ok {
		if !old.dom.Equal(dom) {
			panic(fmt.Sprintf("machine: processor array %s redeclared with different shape", name))
		}
		return old
	}
	pa := &ProcArray{name: name, dom: dom}
	m.procs[name] = pa
	return pa
}

// ProcsDim declares a processor array with default 1-based bounds.
func (m *Machine) ProcsDim(name string, extents ...int) *ProcArray {
	bounds := make([][2]int, len(extents))
	for i, e := range extents {
		bounds[i] = [2]int{1, e}
	}
	return m.Procs(name, bounds...)
}

// Size returns the total number of processors in the array.
func (p *ProcArray) Size() int { return p.dom.Size() }

// RankOf maps processor coordinates to a transport rank.
func (p *ProcArray) RankOf(coords []int) int {
	if !p.dom.Contains(coords) {
		panic(fmt.Sprintf("machine: coords %v outside processor array %s%v", coords, p.name, p.dom))
	}
	return p.dom.Offset(coords)
}

// CoordsOf maps a transport rank to processor coordinates; ok is false if
// the rank lies outside the array.  The returned slice is shared (the
// mapping is precomputed once — rank lookups sit on the schedule-building
// hot path) and must not be modified.
func (p *ProcArray) CoordsOf(rank int) ([]int, bool) {
	if rank < 0 || rank >= p.Size() {
		return nil, false
	}
	p.coordsOnce.Do(func() {
		tab := make([]index.Point, p.Size())
		for r := range tab {
			tab[r] = p.dom.At(r)
		}
		p.coordsTab = tab
	})
	return p.coordsTab[rank], true
}

// Whole returns the section covering the full processor array.  The
// section is shared across calls: distribution expressions evaluate
// "TO <array>" on every executable DISTRIBUTE, and sharing keeps the
// section's rank-coordinate cache warm across them.
func (p *ProcArray) Whole() *ProcSection {
	p.wholeOnce.Do(func() {
		p.whole = &ProcSection{pa: p, sec: p.dom.WholeSection()}
	})
	return p.whole
}

// Section selects a rectangular subset of the processor array, e.g.
// R(1:2, 2:2).  Triplets follow index.NewSection conventions.
func (p *ProcArray) Section(triplets ...[3]int) *ProcSection {
	if len(triplets) != p.dom.Rank() {
		panic(fmt.Sprintf("machine: section rank %d != processor array rank %d", len(triplets), p.dom.Rank()))
	}
	s := index.NewSection(triplets...)
	s.ForEach(func(pt index.Point) bool {
		if !p.dom.Contains(pt) {
			panic(fmt.Sprintf("machine: section point %v outside processor array %s%v", pt, p.name, p.dom))
		}
		return true
	})
	return &ProcSection{pa: p, sec: s}
}

// ProcSection is a rectangular (possibly strided) subset of a processor
// array, used as the target of a distribution ("TO R(...)", §2.2).  Its
// own coordinate space is dense 0-based per dimension; RankOf converts
// back to transport ranks through the parent array.
type ProcSection struct {
	pa  *ProcArray
	sec index.Section

	coordsOnce sync.Once
	coordsTab  [][]int // rank -> section coordinates (nil = not a member)

	strOnce sync.Once
	str     string
}

// NDims returns the section's number of dimensions.
func (s *ProcSection) NDims() int { return s.sec.Rank() }

// Extent returns the number of processors along section dimension k.
func (s *ProcSection) Extent(k int) int { return s.sec.DimCount(k) }

// Size returns the number of processors in the section.
func (s *ProcSection) Size() int { return s.sec.Size() }

// RankOf maps dense section coordinates (0-based per dimension) to a
// transport rank, the parent array's column-major offset.
func (s *ProcSection) RankOf(coords []int) int {
	if len(coords) != s.NDims() {
		panic(fmt.Sprintf("machine: section coords rank %d != %d", len(coords), s.NDims()))
	}
	rank, mult := 0, 1
	for k, c := range coords {
		if c < 0 || c >= s.Extent(k) {
			panic(fmt.Sprintf("machine: section coord %d out of range [0,%d) in dim %d", c, s.Extent(k), k))
		}
		rank += (s.sec.Lo[k] + c*s.sec.Stride[k] - s.pa.dom.Lo[k]) * mult
		mult *= s.pa.dom.Extent(k)
	}
	return rank
}

// CoordsOf maps a transport rank to dense section coordinates; ok is
// false when the rank is not part of the section.  The returned slice is
// shared (the mapping is precomputed once — distribution ownership tests
// call this per rank while a schedule is built) and must not be
// modified.
func (s *ProcSection) CoordsOf(rank int) ([]int, bool) {
	if rank < 0 || rank >= s.pa.Size() {
		return nil, false
	}
	s.coordsOnce.Do(func() {
		tab := make([][]int, s.pa.Size())
		for r := range tab {
			tab[r] = s.coordsOf(r)
		}
		s.coordsTab = tab
	})
	c := s.coordsTab[rank]
	return c, c != nil
}

func (s *ProcSection) coordsOf(rank int) []int {
	abs, ok := s.pa.CoordsOf(rank)
	if !ok {
		return nil
	}
	out := make([]int, s.NDims())
	for k := range out {
		d := abs[k] - s.sec.Lo[k]
		if d < 0 || d%s.sec.Stride[k] != 0 {
			return nil
		}
		c := d / s.sec.Stride[k]
		if c >= s.Extent(k) {
			return nil
		}
		out[k] = c
	}
	return out
}

// Ranks lists the transport ranks of the section in coordinate order
// (first section dimension fastest).
func (s *ProcSection) Ranks() []int {
	out := make([]int, 0, s.Size())
	s.sec.ForEach(func(p index.Point) bool {
		out = append(out, s.pa.RankOf(p))
		return true
	})
	return out
}

func (s *ProcSection) String() string {
	s.strOnce.Do(func() {
		s.str = s.pa.name + s.sec.String()
	})
	return s.str
}
