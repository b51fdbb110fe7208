// Package query implements the control constructs Vienna Fortran provides
// for programs whose array distributions vary at run time (paper §2.5):
// the IDT intrinsic function and the DCASE construct.
//
// Both operate on selectors — anything exposing a name and a current
// distribution type (core.Array qualifies).  Every processor holds its
// own descriptor of an array, so a query names the processor asking.
// DCASE follows the paper's semantics precisely:
//
//   - every selector must be allocated and associated with a well-defined
//     distribution when the construct executes;
//   - condition-action pairs are evaluated in order; the first matching
//     condition's action runs; if none match, the construct completes
//     without executing an action;
//   - a condition is a query list, positional or name-tagged, or DEFAULT;
//   - a query list need not cover every selector: missing selectors get
//     an implicit "*".
package query

import (
	"fmt"

	"repro/internal/dist"
)

// Selector is an array whose distribution can be queried.
type Selector interface {
	// QueryName is the declaration name used by name-tagged query lists.
	QueryName() string
	// Distributed reports whether the array is currently associated with
	// a distribution on processor rank.
	Distributed(rank int) bool
	// DistType returns the current distribution type on processor rank.
	DistType(rank int) dist.Type
}

// IDT is the intrinsic distribution-type test of §2.5.2, evaluated on
// processor rank: it returns true when the selector's current
// distribution type matches the pattern.  Like the paper's IDT it
// requires the array to have a well-defined distribution (panics
// otherwise, mirroring the run-time error a Vienna Fortran program would
// raise).
func IDT(rank int, s Selector, pat dist.Pattern) bool {
	if !s.Distributed(rank) {
		panic(fmt.Sprintf("query: IDT on %s before association with a distribution", s.QueryName()))
	}
	return pat.Matches(s.DistType(rank))
}

// Q is one query in a condition list.
type Q struct {
	// Tag names the selector this query applies to; empty means the
	// query is positional.
	Tag string
	// Pattern is the distribution-type pattern to match.
	Pattern dist.Pattern
}

// On builds a name-tagged query (the paper's "B3: (BLOCK, *)").
func On(tag string, pat dist.Pattern) Q { return Q{Tag: tag, Pattern: pat} }

// P builds a positional query.
func P(pat dist.Pattern) Q { return Q{Pattern: pat} }

type arm struct {
	queries   []Q
	isDefault bool
	action    func() error
}

// DCase is the dcase-construct builder:
//
//	matched, err := query.Select(rank, b1, b2, b3).
//		Case(a1, query.P(p1), query.P(p2), query.P(p3)).
//		Case(a2, query.On("B1", pc), query.On("B3", pb)).
//		Default(a4).
//		Run()
type DCase struct {
	rank      int
	selectors []Selector
	arms      []arm
	err       error
}

// Select starts a dcase construct executed by processor rank over the
// given selectors (at least one, as the paper requires r >= 1).
func Select(rank int, selectors ...Selector) *DCase {
	d := &DCase{rank: rank, selectors: selectors}
	if len(selectors) == 0 {
		d.err = fmt.Errorf("query: SELECT DCASE needs at least one selector")
	}
	return d
}

// Case appends a condition-action pair.  The query list may be positional
// (no tags) or name-tagged (all tags); mixing is rejected.  An empty
// query list is the always-matching list (all implicit "*").
func (d *DCase) Case(action func() error, queries ...Q) *DCase {
	if d.err != nil {
		return d
	}
	tagged, positional := 0, 0
	for _, q := range queries {
		if q.Tag == "" {
			positional++
		} else {
			tagged++
		}
	}
	if tagged > 0 && positional > 0 {
		d.err = fmt.Errorf("query: query list mixes positional and name-tagged queries")
		return d
	}
	if positional > len(d.selectors) {
		d.err = fmt.Errorf("query: %d positional queries for %d selectors", positional, len(d.selectors))
		return d
	}
	if tagged > 0 {
		names := map[string]bool{}
		for _, s := range d.selectors {
			names[s.QueryName()] = true
		}
		seen := map[string]bool{}
		for _, q := range queries {
			if !names[q.Tag] {
				d.err = fmt.Errorf("query: name tag %q is not a selector", q.Tag)
				return d
			}
			if seen[q.Tag] {
				d.err = fmt.Errorf("query: selector %q tagged twice in one query list", q.Tag)
				return d
			}
			seen[q.Tag] = true
		}
	}
	d.arms = append(d.arms, arm{queries: queries, action: action})
	return d
}

// Default appends the DEFAULT condition (always matches).
func (d *DCase) Default(action func() error) *DCase {
	if d.err != nil {
		return d
	}
	d.arms = append(d.arms, arm{isDefault: true, action: action})
	return d
}

// Run evaluates the construct: determines every selector's distribution
// type, evaluates the conditions in order and executes the first matching
// action.  It returns the index of the executed arm (-1 when no condition
// matched) and the action's error.
func (d *DCase) Run() (matched int, err error) {
	if d.err != nil {
		return -1, d.err
	}
	types := make([]dist.Type, len(d.selectors))
	byName := map[string]dist.Type{}
	for i, s := range d.selectors {
		if !s.Distributed(d.rank) {
			return -1, fmt.Errorf("query: selector %s has no well-defined distribution at DCASE execution", s.QueryName())
		}
		types[i] = s.DistType(d.rank)
		byName[s.QueryName()] = types[i]
	}
	for i, a := range d.arms {
		if a.isDefault || d.armMatches(a, types, byName) {
			if a.action == nil {
				return i, nil
			}
			return i, a.action()
		}
	}
	return -1, nil
}

func (d *DCase) armMatches(a arm, types []dist.Type, byName map[string]dist.Type) bool {
	for pos, q := range a.queries {
		var t dist.Type
		if q.Tag != "" {
			t = byName[q.Tag]
		} else {
			t = types[pos]
		}
		if !q.Pattern.Matches(t) {
			return false
		}
	}
	return true
}
