package analysis

import (
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/sem"
)

func analyze(t *testing.T, src string) *Result {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u := sem.Analyze(prog)
	if u.HasErrors() {
		t.Fatalf("sem errors: %v", u.Diags)
	}
	return Analyze(u)
}

// refSets returns the reaching-set strings of every reference to name.
func refSets(r *Result, name string) []string {
	var out []string
	for _, ref := range r.Refs {
		if ref.Array == name {
			out = append(out, ref.Set.String())
		}
	}
	return out
}

func TestFig1ReachingSets(t *testing.T) {
	r := analyze(t, lang.FixtureFig1)
	sets := refSets(r, "V")
	if len(sets) != 3 {
		t.Fatalf("V referenced %d times, want 3 (RESID, x-sweep, y-sweep): %v", len(sets), sets)
	}
	// RESID and the x-sweep see the initial (:,BLOCK); after DISTRIBUTE
	// the y-sweep sees exactly (BLOCK,:).  The compiler knows the
	// distribution precisely at every reference — the paper's "in all
	// critical code sections the distribution is known at compile time".
	if !strings.Contains(sets[0], "(:,BLOCK)") || strings.Contains(sets[0], "(BLOCK,:)") {
		t.Fatalf("RESID set: %s", sets[0])
	}
	if !strings.Contains(sets[1], "(:,BLOCK)") || strings.Contains(sets[1], "(BLOCK,:)") {
		t.Fatalf("x-sweep set: %s", sets[1])
	}
	if !strings.Contains(sets[2], "(BLOCK,:)") || strings.Contains(sets[2], "(:,BLOCK)") {
		t.Fatalf("y-sweep set: %s", sets[2])
	}
	if len(r.Diags) != 0 {
		t.Fatalf("diags: %v", r.Diags)
	}
}

func TestFig1LoopJoin(t *testing.T) {
	// The ADI phases inside an outer iteration loop: references directly
	// after each DISTRIBUTE still see exactly one distribution (the
	// DISTRIBUTE kills the other), while a reference at the loop top sees
	// the join of the entry and end-of-body states.
	r := analyze(t, `
PARAMETER (NX = 8, NY = 8, T = 10)
REAL V(NX, NY) DYNAMIC, DIST (:, BLOCK)
DO K = 1, T
  CALL TOP(V)
  DISTRIBUTE V :: (:, BLOCK)
  CALL XSWEEP(V)
  DISTRIBUTE V :: (BLOCK, :)
  CALL YSWEEP(V)
ENDDO
`)
	sets := refSets(r, "V")
	if len(sets) != 3 {
		t.Fatalf("refs: %v", sets)
	}
	// TOP sees both distributions (entry (:,BLOCK) joined with loop-back
	// (BLOCK,:))
	if !strings.Contains(sets[0], "(:,BLOCK)") || !strings.Contains(sets[0], "(BLOCK,:)") {
		t.Fatalf("loop-top set should contain both: %s", sets[0])
	}
	// XSWEEP sees exactly (:,BLOCK); YSWEEP exactly (BLOCK,:)
	if strings.Contains(sets[1], "(BLOCK,:)") {
		t.Fatalf("x-sweep set not killed: %s", sets[1])
	}
	if strings.Contains(sets[2], "(:,BLOCK)") {
		t.Fatalf("y-sweep set not killed: %s", sets[2])
	}
}

func TestFig2BBlock(t *testing.T) {
	r := analyze(t, lang.FixtureFig2)
	sets := refSets(r, "FIELD")
	if len(sets) < 3 {
		t.Fatalf("FIELD refs: %v", sets)
	}
	// after the initial balance every reference sees B_BLOCK(*) in dim 0
	for i, s := range sets[2:] {
		if !strings.Contains(s, "B_BLOCK(*)") {
			t.Fatalf("ref %d: %s", i+2, s)
		}
	}
}

func TestExample4PartialEvaluation(t *testing.T) {
	r := analyze(t, lang.FixtureExample4)
	if len(r.Arms) != 3 {
		// arm 4 (DEFAULT) is never evaluated: arm 3 is Always and breaks
		t.Fatalf("arm evals: %+v", r.Arms)
	}
	// B1 is (BLOCK), B2 (BLOCK), B3 (BLOCK, CYCLIC):
	// arm 1 wants B3 = (CYCLIC(2),CYCLIC) -> Never
	// arm 2 wants B1 = (CYCLIC) -> Never
	// arm 3 wants B3 = (BLOCK, CYCLIC) -> Always
	want := []Verdict{Never, Never, Always}
	for i, a := range r.Arms {
		if a.Verdict != want[i] {
			t.Fatalf("arm %d: %v want %v (all %+v)", a.Arm, a.Verdict, want[i], r.Arms)
		}
	}
}

func TestDCaseMaybeAndRefinement(t *testing.T) {
	r := analyze(t, `
PARAMETER (N = 8)
REAL B(N,N) DYNAMIC, DIST(BLOCK, :)
REAL FLAG(2) DIST(BLOCK)
IF (FLAG(1) .GT. 0) THEN
  DISTRIBUTE B :: (CYCLIC, :)
ENDIF
SELECT DCASE (B)
CASE (BLOCK, :)
  CALL BLOCKALG(B)
CASE (CYCLIC, :)
  CALL CYCLICALG(B)
END SELECT
`)
	if len(r.Arms) != 2 || r.Arms[0].Verdict != Maybe || r.Arms[1].Verdict != Maybe {
		t.Fatalf("arm verdicts: %+v", r.Arms)
	}
	// inside each arm the query refines B to a single distribution
	sets := refSets(r, "B")
	var blockSet, cyclicSet string
	for i, ref := range r.Refs {
		if ref.Array == "B" {
			_ = i
		}
	}
	for _, s := range sets {
		if strings.Contains(s, "(BLOCK,:)") && !strings.Contains(s, "CYCLIC") {
			blockSet = s
		}
		if strings.Contains(s, "(CYCLIC,:)") && !strings.Contains(s, "BLOCK") {
			cyclicSet = s
		}
	}
	if blockSet == "" || cyclicSet == "" {
		t.Fatalf("refinement failed: %v", sets)
	}
}

func TestIDTPartialEvaluation(t *testing.T) {
	r := analyze(t, lang.FixtureIDT)
	if len(r.Conds) != 1 || r.Conds[0].Verdict != Always {
		t.Fatalf("conds: %+v", r.Conds)
	}
	// negative test: impossible IDT
	r = analyze(t, `
REAL B(8) DYNAMIC, DIST(BLOCK)
IF (IDT(B,(CYCLIC))) THEN
  X = 1
ENDIF
`)
	if r.Conds[0].Verdict != Never {
		t.Fatalf("verdict: %v", r.Conds[0].Verdict)
	}
	// unknown parameter: maybe
	r = analyze(t, `
REAL B(8) DYNAMIC, DIST(CYCLIC(K))
IF (IDT(B,(CYCLIC(4)))) THEN
  X = 1
ENDIF
`)
	if r.Conds[0].Verdict != Maybe {
		t.Fatalf("verdict: %v", r.Conds[0].Verdict)
	}
}

func TestAccessBeforeDistribution(t *testing.T) {
	r := analyze(t, `
REAL B1(8) DYNAMIC
X = B1(3)
`)
	found := false
	for _, d := range r.Diags {
		if strings.Contains(d.Msg, "before it has been associated") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing access-before-distribution diagnostic: %v", r.Diags)
	}
}

func TestRangeFlowChecks(t *testing.T) {
	// definite violation detected statically
	r := analyze(t, `
REAL B(8) DYNAMIC, RANGE((BLOCK)), DIST(BLOCK)
DISTRIBUTE B :: (CYCLIC)
`)
	foundErr := false
	for _, d := range r.Diags {
		if d.Severity == sem.Error && strings.Contains(d.Msg, "violates") {
			foundErr = true
		}
	}
	if !foundErr {
		t.Fatalf("missing violation error: %v", r.Diags)
	}
	// possible violation (runtime K) warned
	r = analyze(t, `
REAL B(8) DYNAMIC, RANGE((CYCLIC(2))), DIST(CYCLIC(2))
DISTRIBUTE B :: (CYCLIC(K))
`)
	foundWarn := false
	for _, d := range r.Diags {
		if d.Severity == sem.Warning && strings.Contains(d.Msg, "may violate") {
			foundWarn = true
		}
	}
	if !foundWarn {
		t.Fatalf("missing may-violate warning: %v", r.Diags)
	}
}

func TestExtractionComponent(t *testing.T) {
	// paper Example 3: DISTRIBUTE B4 :: (=B1, CYCLIC(3))
	r := analyze(t, `
PARAMETER (M = 8, N = 8)
PROCESSORS R2(1:2,1:2)
REAL B1(M) DYNAMIC, DIST(BLOCK)
REAL B4(N,N) DYNAMIC, DIST(BLOCK, CYCLIC) TO R2
DISTRIBUTE B1 :: (CYCLIC(2))
DISTRIBUTE B4 :: (=B1, CYCLIC(3)) TO R2
CALL USE(B4)
`)
	sets := refSets(r, "B4")
	if len(sets) != 1 {
		t.Fatalf("refs: %v", sets)
	}
	if !strings.Contains(sets[0], "(CYCLIC(2),CYCLIC(3)) TO R2") {
		t.Fatalf("extraction set: %s", sets[0])
	}
}

func TestSecondariesFollowInAnalysis(t *testing.T) {
	r := analyze(t, `
PARAMETER (N = 8)
REAL B(N) DYNAMIC, DIST(BLOCK)
REAL A(N) DYNAMIC, CONNECT(=B)
DISTRIBUTE B :: (CYCLIC)
CALL USE(A)
`)
	sets := refSets(r, "A")
	if len(sets) != 1 || !strings.Contains(sets[0], "CYCLIC") || strings.Contains(sets[0], "BLOCK") {
		t.Fatalf("secondary set: %v", sets)
	}
}

func TestAlignedSecondaryDerivation(t *testing.T) {
	r := analyze(t, `
PARAMETER (N = 8)
PROCESSORS G(1:2,1:2)
REAL B(N,N) DYNAMIC, DIST(BLOCK, CYCLIC(2)) TO G
REAL A(N,N) DYNAMIC, CONNECT A(I,J) WITH B(J,I)
CALL USE(A)
`)
	sets := refSets(r, "A")
	if len(sets) != 1 {
		t.Fatalf("refs: %v", sets)
	}
	// A's dim0 follows B's dim1 (CYCLIC(2)); A's dim1 follows B's dim0
	// (BLOCK: the preimage of its segments is a general block)
	if !strings.Contains(sets[0], "(CYCLIC(2),B_BLOCK(*))") {
		t.Fatalf("aligned set: %s", sets[0])
	}
}

func TestReportRenders(t *testing.T) {
	r := analyze(t, lang.FixtureFig1)
	rep := r.Report()
	for _, frag := range []string{"reaching distribution sets", "V", "(BLOCK,:)", "final reaching sets"} {
		if !strings.Contains(rep, frag) {
			t.Fatalf("report missing %q:\n%s", frag, rep)
		}
	}
}

func TestDeadArmAfterAlways(t *testing.T) {
	r := analyze(t, `
REAL B(8) DYNAMIC, DIST(BLOCK)
SELECT DCASE (B)
CASE (BLOCK)
  X = 1
CASE (CYCLIC)
  X = 2
END SELECT
`)
	if len(r.Arms) != 1 || r.Arms[0].Verdict != Always {
		t.Fatalf("arms: %+v", r.Arms)
	}
}

func TestAlignOffsetThroughParameter(t *testing.T) {
	// An alignment offset named by a PARAMETER decomposes like a literal:
	// both secondaries run as B_BLOCK, so both sets must hold it.
	r := analyze(t, `
PARAMETER (N = 16, K = 2)
REAL C(N) DIST (BLOCK)
REAL D(N-K) ALIGN D(I) WITH C(I+K)
REAL E(N-2) ALIGN E(I) WITH C(I+2)
`)
	if d, e := r.Final["D"].String(), r.Final["E"].String(); d != e || d != "{(B_BLOCK(*))}" {
		t.Fatalf("D %s, E %s", d, e)
	}
}
