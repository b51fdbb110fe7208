package query

import (
	"strings"
	"testing"

	"repro/internal/dist"
)

// fakeSel is a minimal Selector for tests.
type fakeSel struct {
	name string
	typ  dist.Type
	has  bool
}

func (f *fakeSel) QueryName() string      { return f.name }
func (f *fakeSel) Distributed(int) bool   { return f.has }
func (f *fakeSel) DistType(int) dist.Type { return f.typ }

func sel(name string, dims ...dist.DimSpec) *fakeSel {
	return &fakeSel{name: name, typ: dist.NewType(dims...), has: true}
}

func TestIDT(t *testing.T) {
	b := sel("B", dist.BlockDim(), dist.CyclicDim(2))
	if !IDT(0, b, dist.NewPattern(dist.PBlock(), dist.PCyclic(2))) {
		t.Error("exact IDT failed")
	}
	if IDT(0, b, dist.NewPattern(dist.PCyclic(2))) {
		t.Error("wrong leading dim matched")
	}
	if !IDT(0, b, dist.NewPattern(dist.PBlock())) {
		t.Error("short pattern (implicit *) failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("IDT on undistributed selector should panic")
		}
	}()
	IDT(0, &fakeSel{name: "U"}, dist.AnyPattern())
}

// TestPaperExample4 executes the dcase construct of paper Example 4 under
// several distribution assignments and checks which arm runs.
func TestPaperExample4(t *testing.T) {
	build := func(t1, t2, t3 dist.Type) (*DCase, *[]string) {
		log := &[]string{}
		act := func(name string) func() error {
			return func() error { *log = append(*log, name); return nil }
		}
		b1 := &fakeSel{name: "B1", typ: t1, has: true}
		b2 := &fakeSel{name: "B2", typ: t2, has: true}
		b3 := &fakeSel{name: "B3", typ: t3, has: true}
		d := Select(0, b1, b2, b3).
			// CASE (BLOCK),(BLOCK),(CYCLIC(2),CYCLIC)
			Case(act("a1"),
				P(dist.NewPattern(dist.PBlock())),
				P(dist.NewPattern(dist.PBlock())),
				P(dist.NewPattern(dist.PCyclic(2), dist.PCyclic(1)))).
			// CASE B1: (CYCLIC), B3: (BLOCK, *)
			Case(act("a2"),
				On("B1", dist.NewPattern(dist.PCyclic(1))),
				On("B3", dist.NewPattern(dist.PBlock(), dist.PAny()))).
			// CASE B3: (BLOCK, CYCLIC)
			Case(act("a3"),
				On("B3", dist.NewPattern(dist.PBlock(), dist.PCyclic(1)))).
			Default(act("a4"))
		return d, log
	}

	block := dist.NewType(dist.BlockDim())
	cyclic := dist.NewType(dist.CyclicDim(1))

	// t1=t2=(BLOCK), t3=(CYCLIC(2),CYCLIC): first query list matches
	d, log := build(block, block, dist.NewType(dist.CyclicDim(2), dist.CyclicDim(1)))
	if m, err := d.Run(); err != nil || m != 0 || (*log)[0] != "a1" {
		t.Fatalf("case 1: m=%d err=%v log=%v", m, err, log)
	}

	// t1=(CYCLIC), t3=(BLOCK, anything), t2 irrelevant: a2
	d, log = build(cyclic, dist.NewType(dist.SBlockDim(1)), dist.NewType(dist.BlockDim(), dist.CyclicDim(7)))
	if m, _ := d.Run(); m != 1 || (*log)[0] != "a2" {
		t.Fatalf("case 2: m=%d log=%v", m, log)
	}

	// t3=(BLOCK,CYCLIC), t1/t2 irrelevant: a3
	d, log = build(block, block, dist.NewType(dist.BlockDim(), dist.CyclicDim(1)))
	if m, _ := d.Run(); m != 2 || (*log)[0] != "a3" {
		t.Fatalf("case 3: m=%d log=%v", m, log)
	}

	// nothing matches: DEFAULT (a4)
	d, log = build(cyclic, block, dist.NewType(dist.CyclicDim(1), dist.CyclicDim(1)))
	if m, _ := d.Run(); m != 3 || (*log)[0] != "a4" {
		t.Fatalf("case 4: m=%d log=%v", m, log)
	}
}

func TestDCaseFirstMatchWins(t *testing.T) {
	b := sel("B", dist.BlockDim())
	order := []string{}
	m, err := Select(0, b).
		Case(func() error { order = append(order, "first"); return nil }, P(dist.AnyPattern())).
		Case(func() error { order = append(order, "second"); return nil }, P(dist.NewPattern(dist.PBlock()))).
		Run()
	if err != nil || m != 0 || len(order) != 1 || order[0] != "first" {
		t.Fatalf("m=%d order=%v", m, order)
	}
}

func TestDCaseNoMatchNoDefault(t *testing.T) {
	b := sel("B", dist.BlockDim())
	ran := false
	m, err := Select(0, b).
		Case(func() error { ran = true; return nil }, P(dist.NewPattern(dist.PCyclic(1)))).
		Run()
	if err != nil || m != -1 || ran {
		t.Fatalf("m=%d ran=%v", m, ran)
	}
}

func TestDCaseEmptyQueryListMatches(t *testing.T) {
	// "A query list need not contain a query for every selector" — the
	// empty list is all implicit "*".
	b := sel("B", dist.CyclicDim(5))
	m, err := Select(0, b).Case(nil).Run()
	if err != nil || m != 0 {
		t.Fatalf("m=%d err=%v", m, err)
	}
}

func TestDCaseErrors(t *testing.T) {
	b1 := sel("B1", dist.BlockDim())
	b2 := sel("B2", dist.BlockDim())
	// mixed positional and tagged
	if _, err := Select(0, b1, b2).Case(nil, P(dist.AnyPattern()), On("B2", dist.AnyPattern())).Run(); err == nil || !strings.Contains(err.Error(), "mixes") {
		t.Errorf("mixed list err = %v", err)
	}
	// unknown tag
	if _, err := Select(0, b1).Case(nil, On("NOPE", dist.AnyPattern())).Run(); err == nil || !strings.Contains(err.Error(), "not a selector") {
		t.Errorf("unknown tag err = %v", err)
	}
	// too many positional queries
	if _, err := Select(0, b1).Case(nil, P(dist.AnyPattern()), P(dist.AnyPattern())).Run(); err == nil {
		t.Error("too many positional queries accepted")
	}
	// duplicate tag
	if _, err := Select(0, b1, b2).Case(nil, On("B1", dist.AnyPattern()), On("B1", dist.AnyPattern())).Run(); err == nil {
		t.Error("duplicate tag accepted")
	}
	// no selectors
	if _, err := Select(0).Case(nil).Run(); err == nil {
		t.Error("empty selector list accepted")
	}
	// undistributed selector at execution
	u := &fakeSel{name: "U"}
	if _, err := Select(0, u).Case(nil).Run(); err == nil || !strings.Contains(err.Error(), "well-defined") {
		t.Errorf("undistributed selector err = %v", err)
	}
}

func TestDCaseTaggedOrderIrrelevant(t *testing.T) {
	// "The order in which the queries occur in such a list is
	// semantically irrelevant."
	b1 := sel("B1", dist.BlockDim())
	b2 := sel("B2", dist.CyclicDim(1))
	m1, _ := Select(0, b1, b2).Case(nil, On("B2", dist.NewPattern(dist.PCyclic(1))), On("B1", dist.NewPattern(dist.PBlock()))).Run()
	m2, _ := Select(0, b1, b2).Case(nil, On("B1", dist.NewPattern(dist.PBlock())), On("B2", dist.NewPattern(dist.PCyclic(1)))).Run()
	if m1 != 0 || m2 != 0 {
		t.Fatalf("tag order changed result: %d %d", m1, m2)
	}
}

func TestDCaseActionError(t *testing.T) {
	b := sel("B", dist.BlockDim())
	wantErr := "boom"
	_, err := Select(0, b).Default(func() error { return errOf(wantErr) }).Run()
	if err == nil || err.Error() != wantErr {
		t.Fatalf("err = %v", err)
	}
}

type strErr string

func (e strErr) Error() string { return string(e) }

func errOf(s string) error { return strErr(s) }
