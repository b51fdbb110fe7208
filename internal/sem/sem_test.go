package sem

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/lang"
)

func analyze(t *testing.T, src string) *Unit {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Analyze(prog)
}

func wantError(t *testing.T, u *Unit, frag string) {
	t.Helper()
	for _, d := range u.Diags {
		if d.Severity == Error && strings.Contains(d.Msg, frag) {
			return
		}
	}
	t.Fatalf("missing error containing %q; got %v", frag, u.Diags)
}

func wantClean(t *testing.T, u *Unit) {
	t.Helper()
	if u.HasErrors() {
		t.Fatalf("unexpected errors: %v", u.Diags)
	}
}

func TestExample2Semantics(t *testing.T) {
	u := analyze(t, lang.FixtureExample2)
	wantClean(t, u)
	if u.Params["M"] != 16 || u.Params["N"] != 12 {
		t.Fatalf("params: %v", u.Params)
	}
	r2 := u.Procs["R2"]
	if r2 == nil || r2.Rank != 2 || r2.Extents[0] != 2 {
		t.Fatalf("R2: %+v", r2)
	}
	b4 := u.Arrays["B4"]
	if b4 == nil || !b4.Dynamic || len(b4.Range) != 2 || b4.Init == nil || b4.Target != "R2" {
		t.Fatalf("B4: %+v", b4)
	}
	if len(b4.Secondaries) != 2 {
		t.Fatalf("C(B4) secondaries: %d", len(b4.Secondaries))
	}
	a1, a2 := u.Arrays["A1"], u.Arrays["A2"]
	if a1.Conn != ConnExtract || a1.Primary != b4 {
		t.Fatalf("A1: %+v", a1)
	}
	if a2.Conn != ConnAlign || a2.Primary != b4 || a2.Align == nil {
		t.Fatalf("A2: %+v", a2)
	}
	// abstract init: (BLOCK, CYCLIC)
	if !b4.Init.Matches(dist.NewType(dist.BlockDim(), dist.CyclicDim(1))) {
		t.Fatalf("B4 init abstraction: %v", b4.Init)
	}
	b1 := u.Arrays["B1"]
	if b1.Init != nil || b1.Extents[0] != 16 {
		t.Fatalf("B1: %+v", b1)
	}
}

func TestFig1And2Clean(t *testing.T) {
	wantClean(t, analyze(t, lang.FixtureFig1))
	wantClean(t, analyze(t, lang.FixtureFig2))
	wantClean(t, analyze(t, lang.FixtureExample4))
	wantClean(t, analyze(t, lang.FixtureIDT))
}

func TestAbstraction(t *testing.T) {
	u := analyze(t, `
PARAMETER (K = 3)
REAL A(10) DYNAMIC, DIST(CYCLIC(K))
REAL B(10) DYNAMIC, DIST(CYCLIC(KRUNTIME))
REAL C(10,10) DYNAMIC, DIST(B_BLOCK(BNDS), :)
`)
	wantClean(t, u)
	a := u.Arrays["A"].Init
	if a.Dims[0].Kind != dist.Cyclic || a.Dims[0].AnyParam || a.Dims[0].K != 3 {
		t.Fatalf("A init: %+v", a.Dims[0])
	}
	b := u.Arrays["B"].Init
	if b.Dims[0].Kind != dist.Cyclic || !b.Dims[0].AnyParam {
		t.Fatalf("B init: %+v", b.Dims[0])
	}
	c := u.Arrays["C"].Init
	if c.Dims[0].Kind != dist.BBlock || c.Dims[1].Kind != dist.Elided {
		t.Fatalf("C init: %+v", c)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src, frag string
	}{
		{"REAL A(4) DIST(BLOCK)\nREAL A(4) DIST(BLOCK)\n", "redeclared"},
		{"REAL A(4) DYNAMIC, CONNECT(=NOPE)\n", "unknown array"},
		{"REAL S(4) DIST(BLOCK)\nREAL A(4) DYNAMIC, CONNECT(=S)\n", "not a dynamic primary"},
		{"REAL B(4) DYNAMIC\nREAL A(4) DYNAMIC, CONNECT(=B)\nREAL X(4) DYNAMIC, CONNECT(=A)\n", "not a dynamic primary"},
		{"REAL B(4) DYNAMIC\nREAL A(4,4) DYNAMIC, CONNECT(=B)\n", "rank mismatch"},
		{"REAL A(4) DYNAMIC, RANGE((BLOCK)), DIST(CYCLIC)\n", "violates"},
		{"REAL A(4,4) DYNAMIC, DIST(BLOCK)\n", "components"},
		{"REAL A(4) DIST(BLOCK) TO NOWHERE\n", "unknown processor array"},
		{"PROCESSORS R(1:2)\nREAL A(4) DYNAMIC\nDISTRIBUTE A :: (BLOCK) TO R(1:2, 1)\n", "2 subscripts for a rank-1 processor array"},
		{"REAL S(4) DIST(BLOCK)\nDISTRIBUTE S :: (CYCLIC)\n", "statically distributed"},
		{"REAL B(4) DYNAMIC\nREAL A(4) DYNAMIC, CONNECT(=B)\nDISTRIBUTE A :: (CYCLIC)\n", "secondary"},
		{"DISTRIBUTE NOPE :: (BLOCK)\n", "undeclared"},
		{"REAL B(4), C(4) DYNAMIC\nDISTRIBUTE B :: (CYCLIC) NOTRANSFER (C)\n", "not a secondary"},
		{"REAL B(4) DYNAMIC\nSELECT DCASE (B)\nCASE NOPE: (BLOCK)\nEND SELECT\n", "not a selector"},
		{"REAL B(4) DYNAMIC\nREAL C(4) DYNAMIC\nSELECT DCASE (B, C)\nCASE (BLOCK), B: (BLOCK)\nEND SELECT\n", "mixes"},
		{"SELECT DCASE (NOPE)\nCASE DEFAULT\nEND SELECT\n", "not a declared array"},
		{"IF (IDT(NOPE,(BLOCK))) THEN\nENDIF\n", "unknown array"},
		{"PARAMETER (N = 2)\nPARAMETER (N = 3)\n", "redefined"},
		{"REAL B(4) DYNAMIC, CONNECT(=B4), DIST(BLOCK)\n", "no RANGE or initial DIST"},
		{"REAL A(8) DYNAMIC, DIST(BLOCK)\nFORALL I = 1, 8\n  DISTRIBUTE A :: (CYCLIC)\nENDFORALL\n", "DISTRIBUTE not allowed inside FORALL"},
		{"REAL A(8) DYNAMIC, DIST(BLOCK)\nFORALL I = 1, 8\n  IF (I .GT. 4) THEN\n    DISTRIBUTE A :: (CYCLIC)\n  ENDIF\nENDFORALL\n", "DISTRIBUTE not allowed inside FORALL"},
		{"REAL A(8) DYNAMIC, DIST(BLOCK)\nFORALL I = 1, 8\n  DO J = 1, 2\n    DISTRIBUTE A :: (CYCLIC)\n  ENDDO\nENDFORALL\n", "DISTRIBUTE not allowed inside FORALL"},
		{"REAL A(8) DYNAMIC, DIST(BLOCK)\nFORALL I = 1, 8\n  IF (I .GT. 4) THEN\n    SELECT DCASE (A)\n    CASE DEFAULT\n    END SELECT\n  ENDIF\nENDFORALL\n", "DCASE not allowed inside FORALL"},
		{"REAL C(4,4) DIST(BLOCK,:)\nREAL D(4,4) ALIGN D(I,J) WITH C(I,I)\n", "alignment index I used twice"},
		{"REAL C(16) DIST(BLOCK)\nREAL D(4) ALIGN D(I) WITH C(I*I)\n", "neither constant nor affine"},
		{"PARAMETER (I = 2)\nREAL C(4) DIST(BLOCK)\nREAL D(4) ALIGN D(I) WITH C(I)\n", "alignment index I names a PARAMETER"},
		{"REAL C(4,4) DYNAMIC, DIST(BLOCK,:)\nREAL D(4) DYNAMIC\nDISTRIBUTE D :: D(I,J) WITH C(J,I)\n", "2 source indices for rank-1 array"},
	}
	for _, c := range cases {
		u := analyze(t, c.src)
		wantError(t, u, c.frag)
	}
}

func TestDefMayMatch(t *testing.T) {
	blockP := dist.NewPattern(dist.PBlock())
	cycAny := dist.NewPattern(dist.PCyclicAny())
	cyc3 := dist.NewPattern(dist.PCyclic(3))
	anyP := dist.NewPattern(dist.PAny())

	// query (BLOCK) vs abstract BLOCK: definite
	if !DefMatch(blockP, blockP) || !MayMatch(blockP, blockP) {
		t.Fatal("block vs block")
	}
	// query CYCLIC(3) vs abstract CYCLIC(*): may but not definite
	if DefMatch(cyc3, cycAny) {
		t.Fatal("CYCLIC(3) should not definitely match CYCLIC(*)")
	}
	if !MayMatch(cyc3, cycAny) {
		t.Fatal("CYCLIC(3) may match CYCLIC(*)")
	}
	// query CYCLIC(*) vs abstract CYCLIC(3): definite
	if !DefMatch(cycAny, cyc3) {
		t.Fatal("CYCLIC(*) definitely matches CYCLIC(3)")
	}
	// query (BLOCK) vs abstract "*": may, not definite
	if DefMatch(blockP, anyP) || !MayMatch(blockP, anyP) {
		t.Fatal("block vs any")
	}
	// mismatched kinds: neither
	if MayMatch(blockP, cyc3) || DefMatch(blockP, cyc3) {
		t.Fatal("block vs cyclic")
	}
	// shorter query pads with *
	bc := dist.NewPattern(dist.PBlock(), dist.PCyclic(2))
	if !DefMatch(blockP, bc) {
		t.Fatal("(BLOCK) should definitely match (BLOCK,CYCLIC(2))")
	}
	// longer query never matches
	if MayMatch(bc, blockP) {
		t.Fatal("longer query matched shorter type")
	}
}

func TestEvalConst(t *testing.T) {
	u := analyze(t, "PARAMETER (N = 10, M = N*2+1)\n")
	wantClean(t, u)
	if u.Params["M"] != 21 {
		t.Fatalf("M = %d", u.Params["M"])
	}
	prog, _ := lang.Parse("X = (3+4)*2-10/5\n")
	v, ok := u.EvalConst(prog.Stmts[0].(*lang.AssignStmt).RHS)
	if !ok || v != 12 {
		t.Fatalf("eval = %d %v", v, ok)
	}
	// $NP is not a compile-time constant
	prog2, _ := lang.Parse("X = $NP\n")
	if _, ok := u.EvalConst(prog2.Stmts[0].(*lang.AssignStmt).RHS); ok {
		t.Fatal("$NP must not be constant")
	}
}

func TestAffineOf(t *testing.T) {
	u := analyze(t, "PARAMETER (C = 5)\n")
	parse := func(s string) lang.Expr {
		prog, err := lang.Parse("X = " + s + "\n")
		if err != nil {
			t.Fatalf("parse %s: %v", s, err)
		}
		return prog.Stmts[0].(*lang.AssignStmt).RHS
	}
	idx := []string{"I", "J"}
	if n, s, o, ok := u.AffineOf(parse("2*I+1"), idx); !ok || n != "I" || s != 2 || o != 1 {
		t.Fatalf("2*I+1 -> %s %d %d %v", n, s, o, ok)
	}
	if n, _, o, ok := u.AffineOf(parse("J-3"), idx); !ok || n != "J" || o != -3 {
		t.Fatalf("J-3 -> %s %d %v", n, o, ok)
	}
	if n, _, o, ok := u.AffineOf(parse("C"), idx); !ok || n != "" || o != 5 {
		t.Fatalf("C -> %q %d %v", n, o, ok)
	}
	if _, _, _, ok := u.AffineOf(parse("I*J"), idx); ok {
		t.Fatal("I*J should not be affine")
	}
	if n, _, o, ok := u.AffineOf(parse("C/2"), idx); !ok || n != "" || o != 2 {
		t.Fatalf("C/2 -> %q %d %v", n, o, ok)
	}
	if n, s, o, ok := u.AffineOf(parse("3*I-C/2"), idx); !ok || n != "I" || s != 3 || o != -2 {
		t.Fatalf("3*I-C/2 -> %s %d %d %v", n, s, o, ok)
	}
}

// TestCut: the driver loop is the last top-level DO whose bounds
// PARAMETERs and $NP give, with Fortran's trip count; a DO whose bounds
// read a variable, or no DO at all, leaves the program one iteration.
func TestCut(t *testing.T) {
	const head = `
PARAMETER (N = 7)
INTEGER B($NP)
REAL A(N) DIST(BLOCK)
S = 0
`
	for _, c := range []struct {
		loops                  string
		from, trips, pre, post int
		loop                   bool
	}{
		{"DO I = 1, N\n  S = S + 1\nENDDO\n", 1, 7, 1, 1, true},
		{"DO I = 1, N\nENDDO\nDO K = $NP, 1, -2\nENDDO\n", 4, 2, 2, 1, true},
		{"DO K = 5, 4\nENDDO\n", 5, 0, 1, 1, true},
		{"DO K = 1, S\nENDDO\n", 0, 1, 3, 0, false},
		{"", 0, 1, 2, 0, false},
	} {
		u := analyze(t, head+c.loops+"S = S + 2\n")
		wantClean(t, u)
		l := u.Cut(4)
		if (l.Loop != nil) != c.loop || l.From != c.from || l.Trips != c.trips {
			t.Errorf("%q: loop %v from %d, %d trips; want %v, %d, %d", c.loops, l.Loop != nil, l.From, l.Trips, c.loop, c.from, c.trips)
		}
		if len(l.Decls) != 3 || len(l.PerNP) != 1 || l.PerNP[0] != "B" {
			t.Errorf("%q: %d declarations, per-processor %v; want 3 and [B]", c.loops, len(l.Decls), l.PerNP)
		}
		if len(l.Pre) != c.pre || len(l.Post) != c.post {
			t.Errorf("%q: %d statements before the loop and %d after; want %d and %d", c.loops, len(l.Pre), len(l.Post), c.pre, c.post)
		}
	}
}
