package interp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/sem"
)

// run executes the whole program on the calling processor.
func run(in *Interp, ctx *machine.Ctx, unit *sem.Unit) (*State, error) {
	st, err := in.NewState(ctx, unit)
	if err != nil {
		return nil, err
	}
	return st, st.Run(unit.Prog.Stmts)
}

// runProgram executes src on np processors and returns rank 0's state and
// a gather of the named array.
func runProgram(t *testing.T, np int, src string, gather string) (map[string]float64, []float64) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	unit := sem.Analyze(prog)
	if unit.HasErrors() {
		t.Fatalf("sem: %v", unit.Diags)
	}
	m := machine.New(np)
	t.Cleanup(func() { m.Close() })
	e := core.NewEngine(m)
	in := New(e)
	var scalars map[string]float64
	var data []float64
	if err := m.Run(func(ctx *machine.Ctx) error {
		st, err := run(in, ctx, unit)
		if err != nil {
			return err
		}
		if gather != "" {
			arr, ok := st.Array(gather)
			if !ok {
				t.Errorf("array %s not declared", gather)
				return nil
			}
			got, err := arr.GatherTo(ctx, 0)
			if err != nil {
				return err
			}
			if ctx.Rank() == 0 {
				data = got
				scalars = st.Scalars
			}
		} else if ctx.Rank() == 0 {
			scalars = st.Scalars
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return scalars, data
}

func TestScalarsAndControlFlow(t *testing.T) {
	sc, _ := runProgram(t, 2, `
PARAMETER (N = 5)
X = 0
DO I = 1, N
  X = X + I
ENDDO
IF (X .EQ. 15) THEN
  Y = 1
ELSE
  Y = 2
ENDIF
Z = MOD(17, 5)
W = $NP
`, "")
	if sc["X"] != 15 || sc["Y"] != 1 || sc["Z"] != 2 || sc["W"] != 2 {
		t.Fatalf("scalars: %v", sc)
	}
}

func TestOwnerComputesAssignment(t *testing.T) {
	_, data := runProgram(t, 4, `
PARAMETER (N = 12)
REAL A(N) DYNAMIC, DIST(CYCLIC(2))
DO I = 1, N
  A(I) = I * 10
ENDDO
`, "A")
	for i := 0; i < 12; i++ {
		if data[i] != float64((i+1)*10) {
			t.Fatalf("A[%d] = %v", i+1, data[i])
		}
	}
}

func TestDistributePreservesValues(t *testing.T) {
	_, data := runProgram(t, 3, `
PARAMETER (N = 9)
REAL A(N) DYNAMIC, DIST(BLOCK)
DO I = 1, N
  A(I) = I
ENDDO
DISTRIBUTE A :: (CYCLIC)
`, "A")
	for i := 0; i < 9; i++ {
		if data[i] != float64(i+1) {
			t.Fatalf("A[%d] = %v after DISTRIBUTE", i+1, data[i])
		}
	}
}

func TestFig1ADIRunsAndMatchesSerial(t *testing.T) {
	const nx, ny = 12, 8
	src := `
PARAMETER (NX = 12, NY = 8)
REAL U(NX, NY), F(NX, NY) DIST (:, BLOCK)
REAL V(NX, NY) DYNAMIC, RANGE( (:, BLOCK), ( BLOCK, :)), &
&    DIST (:, BLOCK)

DO J = 1, NY
  DO I = 1, NX
    U(I, J) = MOD(I * 3 + J * 7, 5)
    F(I, J) = 1
  ENDDO
ENDDO

CALL RESID( V, U, F, NX, NY)

DO J = 1, NY
  CALL TRIDIAG( V(:, J), NX)
ENDDO

DISTRIBUTE V :: ( BLOCK, : )

DO I = 1, NX
  CALL TRIDIAG( V(I, :), NY)
ENDDO
`
	_, got := runProgram(t, 4, src, "V")

	// serial reference
	u := make([]float64, nx*ny)
	f := make([]float64, nx*ny)
	for j := 1; j <= ny; j++ {
		for i := 1; i <= nx; i++ {
			k := (j-1)*nx + (i - 1)
			u[k] = math.Mod(float64(i*3+j*7), 5)
			f[k] = 1
		}
	}
	v := make([]float64, nx*ny)
	kernels.Resid(v, u, f, nx, ny)
	for j := 0; j < ny; j++ {
		kernels.Tridiag(v[j*nx:(j+1)*nx], TriA, TriB, TriC, nil)
	}
	for i := 0; i < nx; i++ {
		kernels.TridiagStrided(v, i, nx, ny, TriA, TriB, TriC, nil)
	}
	for k := range v {
		if math.Abs(got[k]-v[k]) > 1e-10 {
			t.Fatalf("V[%d] = %g want %g", k, got[k], v[k])
		}
	}
}

func TestStaticADIWithoutRedistributeAlsoMatches(t *testing.T) {
	// Same program minus the DISTRIBUTE: the second sweep's lines span
	// processors and TRIDIAG falls back to gather/solve/scatter — the
	// result is identical, only the communication differs (§4).
	const nx, ny = 8, 8
	src := `
PARAMETER (NX = 8, NY = 8)
REAL V(NX, NY) DYNAMIC, DIST (:, BLOCK)
DO J = 1, NY
  DO I = 1, NX
    V(I, J) = MOD(I + J, 3)
  ENDDO
ENDDO
DO J = 1, NY
  CALL TRIDIAG( V(:, J), NX)
ENDDO
DO I = 1, NX
  CALL TRIDIAG( V(I, :), NY)
ENDDO
`
	_, got := runProgram(t, 4, src, "V")
	v := make([]float64, nx*ny)
	for j := 1; j <= ny; j++ {
		for i := 1; i <= nx; i++ {
			v[(j-1)*nx+i-1] = math.Mod(float64(i+j), 3)
		}
	}
	for j := 0; j < ny; j++ {
		kernels.Tridiag(v[j*nx:(j+1)*nx], TriA, TriB, TriC, nil)
	}
	for i := 0; i < nx; i++ {
		kernels.TridiagStrided(v, i, nx, ny, TriA, TriB, TriC, nil)
	}
	for k := range v {
		if math.Abs(got[k]-v[k]) > 1e-10 {
			t.Fatalf("V[%d] = %g want %g", k, got[k], v[k])
		}
	}
}

func TestDCaseDispatchesOnRuntimeDistribution(t *testing.T) {
	sc, _ := runProgram(t, 2, `
PARAMETER (N = 8)
REAL B(N) DYNAMIC, DIST(BLOCK)
SELECT DCASE (B)
CASE (CYCLIC)
  X = 1
CASE (BLOCK)
  X = 2
CASE DEFAULT
  X = 3
END SELECT
DISTRIBUTE B :: (CYCLIC(2))
SELECT DCASE (B)
CASE (CYCLIC(2))
  Y = 1
CASE DEFAULT
  Y = 2
END SELECT
`, "")
	if sc["X"] != 2 || sc["Y"] != 1 {
		t.Fatalf("scalars: %v", sc)
	}
}

func TestIDTBranch(t *testing.T) {
	sc, _ := runProgram(t, 2, `
REAL B(8) DYNAMIC, DIST(CYCLIC)
IF (IDT(B,(CYCLIC)) .AND. .NOT. IDT(B,(BLOCK))) THEN
  X = 7
ENDIF
`, "")
	if sc["X"] != 7 {
		t.Fatalf("X = %v", sc["X"])
	}
}

func TestBBlockFromArray(t *testing.T) {
	_, data := runProgram(t, 2, `
PARAMETER (N = 8)
INTEGER BOUNDS(2)
REAL A(N) DYNAMIC, DIST(BLOCK)
BOUNDS(1) = 6
BOUNDS(2) = 8
DO I = 1, N
  A(I) = I
ENDDO
DISTRIBUTE A :: (B_BLOCK(BOUNDS))
`, "A")
	for i := 0; i < 8; i++ {
		if data[i] != float64(i+1) {
			t.Fatalf("A[%d] = %v", i+1, data[i])
		}
	}
}

func TestConnectClassInInterp(t *testing.T) {
	_, data := runProgram(t, 2, `
PARAMETER (N = 6)
REAL B(N) DYNAMIC, DIST(BLOCK)
REAL A(N) DYNAMIC, CONNECT(=B)
DO I = 1, N
  A(I) = I * 2
ENDDO
DISTRIBUTE B :: (CYCLIC)
`, "A")
	for i := 0; i < 6; i++ {
		if data[i] != float64(2*(i+1)) {
			t.Fatalf("A[%d] = %v (secondary should move with primary)", i+1, data[i])
		}
	}
}

func TestInterpErrors(t *testing.T) {
	run := func(src string) error {
		prog, err := lang.Parse(src)
		if err != nil {
			return err
		}
		unit := sem.Analyze(prog)
		m := machine.New(2)
		defer m.Close()
		e := core.NewEngine(m)
		in := New(e)
		return m.Run(func(ctx *machine.Ctx) error {
			_, err := run(in, ctx, unit)
			return err
		})
	}
	if err := run("CALL NOSUCH(1)\n"); err == nil || !strings.Contains(err.Error(), "unregistered") {
		t.Fatalf("err = %v", err)
	}
	if err := run("X = NOPE + 1\n"); err == nil || !strings.Contains(err.Error(), "undefined scalar") {
		t.Fatalf("err = %v", err)
	}
	if err := run("REAL B(4) DYNAMIC, RANGE((BLOCK)), DIST(BLOCK)\nDISTRIBUTE B :: (CYCLIC)\n"); err == nil || !strings.Contains(err.Error(), "violates") {
		t.Fatalf("err = %v", err)
	}
}

// A bad TRIDIAG length is an error naming the valid range, not a
// makeslice panic on the rank that owns the line.
func TestTridiagBadLength(t *testing.T) {
	for _, call := range []string{
		"CALL TRIDIAG(V(:, 1), -3)",
		"CALL TRIDIAG(V(:, 1), 5 / 2)",
		"CALL NANLEN(V(:, 1))", // no expression of the language yields a NaN
	} {
		prog, err := lang.Parse("REAL V(4,4) DIST(:, BLOCK)\n" + call + "\n")
		if err != nil {
			t.Fatal(err)
		}
		unit := sem.Analyze(prog)
		m := machine.New(2)
		in := New(core.NewEngine(m))
		in.Register("NANLEN", func(st *State, args []any) error {
			return builtinTridiag(st, []any{args[0], math.NaN()})
		})
		err = m.Run(func(ctx *machine.Ctx) error {
			_, err := run(in, ctx, unit)
			return err
		})
		m.Close()
		if err == nil || !strings.Contains(err.Error(), "must be an integer in 0..4") {
			t.Errorf("%s: err = %v", call, err)
		}
	}
}

func TestCustomBuiltin(t *testing.T) {
	prog, err := lang.Parse(`
PARAMETER (N = 6)
REAL A(N) DYNAMIC, DIST(BLOCK)
CALL FILLSQ(A, N)
`)
	if err != nil {
		t.Fatal(err)
	}
	unit := sem.Analyze(prog)
	m := machine.New(2)
	defer m.Close()
	e := core.NewEngine(m)
	in := New(e)
	in.Register("FILLSQ", func(st *State, args []any) error {
		aa := args[0].(*ArrayArg)
		aa.Arr.FillFunc(st.Ctx, func(p index.Point) float64 { return float64(p[0] * p[0]) })
		st.Ctx.Barrier()
		return nil
	})
	var data []float64
	if err := m.Run(func(ctx *machine.Ctx) error {
		st, err := run(in, ctx, unit)
		if err != nil {
			return err
		}
		arr, _ := st.Array("A")
		got, err := arr.GatherTo(ctx, 0)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			data = got
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if data[i] != float64((i+1)*(i+1)) {
			t.Fatalf("A[%d] = %v", i+1, data[i])
		}
	}
}

func TestForallOwnerComputesPartitioning(t *testing.T) {
	// single-assignment body: each rank iterates only its owned indices
	_, data := runProgram(t, 4, `
PARAMETER (N = 16)
REAL A(N) DYNAMIC, DIST(CYCLIC(2))
FORALL I = 1, N
  A(I) = I * I
ENDFORALL
`, "A")
	for i := 0; i < 16; i++ {
		if data[i] != float64((i+1)*(i+1)) {
			t.Fatalf("A[%d] = %v", i+1, data[i])
		}
	}
}

func TestForallGeneralBodyAndStep(t *testing.T) {
	_, data := runProgram(t, 2, `
PARAMETER (N = 10)
REAL A(N), B(N) DYNAMIC, DIST(BLOCK)
FORALL I = 1, N, 2
  A(I) = I
  B(I) = 2 * I
ENDFORALL
`, "B")
	for i := 1; i <= 10; i++ {
		want := 0.0
		if i%2 == 1 {
			want = float64(2 * i)
		}
		if data[i-1] != want {
			t.Fatalf("B[%d] = %v want %v", i, data[i-1], want)
		}
	}
}

func TestForallRejectsDistribute(t *testing.T) {
	prog, err := lang.Parse(`
REAL A(8) DYNAMIC, DIST(BLOCK)
FORALL I = 1, 8
  DISTRIBUTE A :: (CYCLIC)
ENDFORALL
`)
	if err != nil {
		t.Fatal(err)
	}
	unit := sem.Analyze(prog)
	m := machine.New(2)
	defer m.Close()
	e := core.NewEngine(m)
	in := New(e)
	err = m.Run(func(ctx *machine.Ctx) error {
		_, err := run(in, ctx, unit)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "not allowed inside FORALL") {
		t.Fatalf("err = %v", err)
	}
}

func TestInterpNegativeStepAndIntrinsics(t *testing.T) {
	sc, _ := runProgram(t, 2, `
X = 0
DO I = 10, 2, -2
  X = X + I
ENDDO
Y = MIN(3, 7, 1)
Z = MAX(3, 7, 1)
W = -Y + 2 * (Z - 1)
`, "")
	if sc["X"] != 30 || sc["Y"] != 1 || sc["Z"] != 7 || sc["W"] != 11 {
		t.Fatalf("scalars: %v", sc)
	}
}

func TestInterpDCaseNoMatchNoAction(t *testing.T) {
	sc, _ := runProgram(t, 2, `
REAL B(8) DYNAMIC, DIST(BLOCK)
X = 5
SELECT DCASE (B)
CASE (CYCLIC)
  X = 1
END SELECT
`, "")
	if sc["X"] != 5 {
		t.Fatalf("no-match DCASE must not execute an action: %v", sc["X"])
	}
}

func TestInterpArrayElementInCondition(t *testing.T) {
	sc, _ := runProgram(t, 2, `
PARAMETER (N = 4)
REAL A(N) DYNAMIC, DIST(BLOCK)
DO I = 1, N
  A(I) = I
ENDDO
IF (A(3) .GE. 3) THEN
  X = 1
ELSE
  X = 2
ENDIF
`, "")
	if sc["X"] != 1 {
		t.Fatalf("X = %v", sc["X"])
	}
}

func TestInterpAlignedConnectSecondary(t *testing.T) {
	// secondary connected by alignment follows its primary's DISTRIBUTE
	_, data := runProgram(t, 2, `
PARAMETER (N = 6)
REAL B(N,N) DYNAMIC, DIST(BLOCK, :)
REAL A(N,N) DYNAMIC, CONNECT A(I,J) WITH B(J,I)
DO J = 1, N
  DO I = 1, N
    A(I,J) = I * 10 + J
  ENDDO
ENDDO
DISTRIBUTE B :: (:, BLOCK)
`, "A")
	for j := 1; j <= 6; j++ {
		for i := 1; i <= 6; i++ {
			if data[(j-1)*6+i-1] != float64(i*10+j) {
				t.Fatalf("A(%d,%d) = %v", i, j, data[(j-1)*6+i-1])
			}
		}
	}
}

// TestDistributeThenNonLocalReads: element reads on either side of an
// interpreted DISTRIBUTE reach into the owners' storage (scalar
// statements, an IF condition, an array statement).  The statement-level
// barriers around a DISTRIBUTE must order them against the owners'
// commits, so P = 4 computes what P = 1 does.
func TestDistributeThenNonLocalReads(t *testing.T) {
	const src = `
PARAMETER (N = 16)
REAL A(N) DYNAMIC, DIST(BLOCK)
REAL B(N) DIST(CYCLIC)
DO I = 1, N
  A(I) = I * I
ENDDO
S = 0
DO K = 1, 4
  S = S + A(N + 1 - K)
  DISTRIBUTE A :: (CYCLIC(3))
  S = S + 2 * A(K) + A(N - K)
  IF (A(N) .GT. S) THEN
    S = S + 1
  ENDIF
  B(K) = A(N + 1 - K) + S
  DISTRIBUTE A :: (BLOCK)
  S = S + A(2 * K)
  A(K) = A(K) + 1
ENDDO
`
	serialS, serialB := runProgram(t, 1, src, "B")
	for _, np := range []int{2, 4} {
		s, b := runProgram(t, np, src, "B")
		if s["S"] != serialS["S"] {
			t.Errorf("P=%d: S = %v, P=1 computes %v", np, s["S"], serialS["S"])
		}
		for i := range serialB {
			if b[i] != serialB[i] {
				t.Errorf("P=%d: B(%d) = %v, P=1 computes %v", np, i+1, b[i], serialB[i])
			}
		}
	}
}

func TestInterpNoTransfer(t *testing.T) {
	src := `
PARAMETER (N = 8)
REAL B(N) DYNAMIC, DIST(BLOCK)
REAL A(N) DYNAMIC, CONNECT(=B)
DO I = 1, N
  A(I) = I * 10
ENDDO
DISTRIBUTE B :: (CYCLIC) NOTRANSFER (A)
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	unit := sem.Analyze(prog)
	if unit.HasErrors() {
		t.Fatalf("sem: %v", unit.Diags)
	}
	m := machine.New(2)
	defer m.Close()
	e := core.NewEngine(m)
	in := New(e)
	if err := m.Run(func(ctx *machine.Ctx) error {
		st, err := run(in, ctx, unit)
		if err != nil {
			return err
		}
		a, _ := st.Array("A")
		b, _ := st.Array("B")
		if !a.DistType(ctx.Rank()).Equal(b.DistType(ctx.Rank())) {
			t.Error("NOTRANSFER must still re-derive the secondary's type")
		}
		// rank 0 owned 1..4 before; under CYCLIC it owns odds. Kept
		// in-place: 1, 3. Elements 5, 7 were not transferred: zero.
		if ctx.Rank() == 0 {
			l := a.Local(ctx)
			if l.At([]int{1}) != 10 || l.At([]int{3}) != 30 {
				t.Error("in-place values lost under NOTRANSFER")
			}
			if l.At([]int{5}) != 0 || l.At([]int{7}) != 0 {
				t.Error("NOTRANSFER moved data")
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
