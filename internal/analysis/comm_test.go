package analysis

import (
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/sem"
)

func analyzeComm(t *testing.T, src string, np int) *CommResult {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u := sem.Analyze(prog)
	if u.HasErrors() {
		t.Fatalf("sem: %v", u.Diags)
	}
	return AnalyzeComm(Analyze(u), np)
}

// infosFor returns the classifications recorded for one array.
func infosFor(cr *CommResult, name string) []CommInfo {
	var out []CommInfo
	for _, i := range cr.Infos {
		if i.Array == name {
			out = append(out, i)
		}
	}
	return out
}

func TestCommStencilShift(t *testing.T) {
	cr := analyzeComm(t, `
PARAMETER (N = 16)
REAL V(N,N) DYNAMIC, DIST(BLOCK, :)
REAL U(N,N) DYNAMIC, DIST(BLOCK, :)
DO J = 2, N-1
  DO I = 2, N-1
    V(I,J) = U(I-1,J) + U(I+1,J) + U(I,J-1) + U(I,J+1)
  ENDDO
ENDDO
`, 4)
	infos := infosFor(cr, "U")
	if len(infos) != 4 {
		t.Fatalf("infos: %+v", infos)
	}
	// U(I±1,J): shift along distributed dim 0 width 1
	if infos[0].Kind != CommShift || infos[0].Dim != 0 || infos[0].Width != 1 {
		t.Fatalf("U(I-1,J): %+v", infos[0])
	}
	if infos[1].Kind != CommShift {
		t.Fatalf("U(I+1,J): %+v", infos[1])
	}
	// U(I,J±1): dim 1 is elided -> local
	if infos[2].Kind != CommLocal || infos[3].Kind != CommLocal {
		t.Fatalf("column-shift refs should be local: %+v %+v", infos[2], infos[3])
	}
	// memory: 16x16 over 4 procs on dim0 = 4x16=64 elems + ghosts 2*1*16=32
	found := false
	for _, m := range cr.Mems {
		if m.Array == "U" {
			found = true
			if m.Elems != 64 || m.Ghost != 32 || m.Bytes != 8*(64+32) {
				t.Fatalf("mem: %+v", m)
			}
		}
	}
	if !found {
		t.Fatal("no memory estimate for U")
	}
}

func TestCommTranspose(t *testing.T) {
	cr := analyzeComm(t, `
PARAMETER (N = 8)
REAL V(N,N) DYNAMIC, DIST(BLOCK, :)
REAL U(N,N) DYNAMIC, DIST(BLOCK, :)
DO J = 1, N
  DO I = 1, N
    V(I,J) = U(J,I)
  ENDDO
ENDDO
`, 4)
	infos := infosFor(cr, "U")
	if len(infos) != 1 || infos[0].Kind != CommTranspose {
		t.Fatalf("transpose access: %+v", infos)
	}
}

func TestCommIrregular(t *testing.T) {
	cr := analyzeComm(t, `
PARAMETER (N = 8)
REAL A(N) DYNAMIC, DIST(BLOCK)
REAL X(N) DYNAMIC, DIST(BLOCK)
INTEGER IDX(N)
DO I = 1, N
  X(I) = A(IDX(I))
ENDDO
`, 4)
	infos := infosFor(cr, "A")
	if len(infos) != 1 || infos[0].Kind != CommIrregular {
		t.Fatalf("irregular access: %+v", infos)
	}
}

func TestCommBroadcast(t *testing.T) {
	cr := analyzeComm(t, `
PARAMETER (N = 8)
REAL A(N,N) DYNAMIC, DIST(BLOCK, :)
REAL X(N,N) DYNAMIC, DIST(BLOCK, :)
DO J = 1, N
  DO I = 1, N
    X(I,J) = A(1,J)
  ENDDO
ENDDO
`, 4)
	infos := infosFor(cr, "A")
	if len(infos) != 1 || infos[0].Kind != CommBroadcast {
		t.Fatalf("broadcast access: %+v", infos)
	}
}

func TestCommLocalAligned(t *testing.T) {
	cr := analyzeComm(t, `
PARAMETER (N = 8)
REAL A(N) DYNAMIC, DIST(CYCLIC)
REAL X(N) DYNAMIC, DIST(CYCLIC)
DO I = 1, N
  X(I) = A(I) * 2
ENDDO
`, 4)
	infos := infosFor(cr, "A")
	if len(infos) != 1 || infos[0].Kind != CommLocal {
		t.Fatalf("aligned access: %+v", infos)
	}
}

func TestCommCyclicShiftIsNotOverlap(t *testing.T) {
	cr := analyzeComm(t, `
PARAMETER (N = 8)
REAL A(N) DYNAMIC, DIST(CYCLIC)
REAL X(N) DYNAMIC, DIST(CYCLIC)
DO I = 2, N
  X(I) = A(I-1)
ENDDO
`, 4)
	infos := infosFor(cr, "A")
	if len(infos) != 1 || infos[0].Kind != CommTranspose {
		t.Fatalf("shifted CYCLIC should need global communication: %+v", infos)
	}
}

func TestCommPerPlausibleDistribution(t *testing.T) {
	// After a conditional DISTRIBUTE, the reference is classified under
	// each plausible distribution separately — local under one, shifted
	// under the other.
	cr := analyzeComm(t, `
PARAMETER (N = 16)
REAL U(N,N) DYNAMIC, DIST(BLOCK, :)
REAL V(N,N) DYNAMIC, DIST(BLOCK, :)
REAL FLAG(2)
IF (FLAG(1) .GT. 0) THEN
  DISTRIBUTE U :: (:, BLOCK)
ENDIF
DO J = 2, N
  DO I = 1, N
    V(I,J) = U(I,J-1)
  ENDDO
ENDDO
`, 4)
	infos := infosFor(cr, "U")
	if len(infos) != 2 {
		t.Fatalf("want one verdict per plausible distribution: %+v", infos)
	}
	kinds := map[CommKind]bool{}
	for _, i := range infos {
		kinds[i.Kind] = true
	}
	if !kinds[CommLocal] || !kinds[CommShift] {
		t.Fatalf("want local under (BLOCK,:) and shift under (:,BLOCK): %+v", infos)
	}
}

func TestCommFig1SweepClassification(t *testing.T) {
	// The ADI pattern, expressed as explicit loops instead of TRIDIAG
	// calls: under (:,BLOCK) the column recurrence is local and the row
	// recurrence is a transpose-class access — exactly why Figure 1
	// redistributes between the sweeps.
	cr := analyzeComm(t, `
PARAMETER (N = 16)
REAL V(N,N) DYNAMIC, DIST(:, BLOCK)
DO J = 1, N
  DO I = 2, N
    V(I,J) = V(I,J) - V(I-1,J)
  ENDDO
ENDDO
DO I = 1, N
  DO J = 2, N
    V(I,J) = V(I,J) - V(I,J-1)
  ENDDO
ENDDO
`, 4)
	infos := infosFor(cr, "V")
	// refs: x-sweep V(I,J), V(I-1,J); y-sweep V(I,J), V(I,J-1)
	if len(infos) != 4 {
		t.Fatalf("infos: %+v", infos)
	}
	if infos[0].Kind != CommLocal || infos[1].Kind != CommLocal {
		t.Fatalf("x-sweep should be fully local under (:,BLOCK): %+v", infos[:2])
	}
	if infos[3].Kind != CommShift || infos[3].Dim != 1 {
		t.Fatalf("y-sweep recurrence should shift along the distributed dim: %+v", infos[3])
	}
	if rep := cr.Report(); !strings.Contains(rep, "shift") || !strings.Contains(rep, "memory requirements") {
		t.Fatalf("report:\n%s", rep)
	}
}

// memFor returns the memory estimate of one array under one distribution.
func memFor(t *testing.T, cr *CommResult, name, under string) MemEstimate {
	t.Helper()
	for _, m := range cr.Mems {
		if m.Array == name && m.Under.String() == under {
			return m
		}
	}
	t.Fatalf("no memory estimate for %s under %s: %+v", name, under, cr.Mems)
	return MemEstimate{}
}

func TestCommStaticAlign(t *testing.T) {
	// A statically aligned array is classified under the set Analyze
	// derived through its alignment, and its estimate carries the overlap.
	cr := analyzeComm(t, `
PARAMETER (N = 16)
REAL C(N,N) DIST (BLOCK, :)
REAL D(N,N) ALIGN D(I,J) WITH C(I,J)
DO J = 1, N
  DO I = 2, N
    C(I,J) = D(I-1,J)
  ENDDO
ENDDO
`, 4)
	infos := infosFor(cr, "D")
	if len(infos) != 1 || infos[0].String() != "D under (B_BLOCK(*),:): shift dim 1 width 1" {
		t.Fatalf("D: %+v", infos)
	}
	if m := memFor(t, cr, "D", "(B_BLOCK(*),:)"); m.Ghost != 2*1*16 {
		t.Fatalf("D estimate: %+v", m)
	}
}

func TestCommDCASERefined(t *testing.T) {
	// Inside CASE (BLOCK, :) the selector reaches only (BLOCK,:), so its
	// reference is classified once, under that distribution.
	cr := analyzeComm(t, `
PARAMETER (N = 16)
REAL B(N,N) DYNAMIC, DIST (BLOCK, :)
REAL A(N,N) DYNAMIC, DIST (BLOCK, :)
X = 1
IF (X .EQ. 1) THEN
  DISTRIBUTE B :: (:, BLOCK)
ENDIF
SELECT DCASE (B)
CASE (BLOCK, :)
  DO J = 1, N
    DO I = 2, N
      A(I,J) = B(I-1,J)
    ENDDO
  ENDDO
END SELECT
`, 4)
	infos := infosFor(cr, "B")
	if len(infos) != 1 || infos[0].String() != "B under (BLOCK,:): shift dim 1 width 1" {
		t.Fatalf("B: %+v", infos)
	}
}

func TestCommGhostPerDistribution(t *testing.T) {
	// U(I,J-1) shifts along dim 2 under (:,BLOCK) only: the overlap is
	// charged to that estimate, not to (BLOCK,:), where dim 2 is elided.
	cr := analyzeComm(t, `
PARAMETER (N = 16)
REAL U(N,N) DYNAMIC, DIST(BLOCK, :)
REAL V(N,N) DYNAMIC, DIST(BLOCK, :)
REAL FLAG(2)
IF (FLAG(1) .GT. 0) THEN
  DISTRIBUTE U :: (:, BLOCK)
ENDIF
DO J = 2, N
  DO I = 1, N
    V(I,J) = U(I,J-1)
  ENDDO
ENDDO
`, 4)
	if m := memFor(t, cr, "U", "(BLOCK,:)"); m.Ghost != 0 {
		t.Fatalf("U under (BLOCK,:): %+v", m)
	}
	if m := memFor(t, cr, "U", "(:,BLOCK)"); m.Ghost != 2*1*16 {
		t.Fatalf("U under (:,BLOCK): %+v", m)
	}
}
