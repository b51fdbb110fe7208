package analysis

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
)

// TestStaticVerdictMatchesRun: an aligned array's IDT verdict is the
// branch the run takes at P = 4.  The k-th IF of each listing sets Xk to
// 1 in its THEN branch and 2 in its ELSE branch; every verdict here is
// definite.  An identity axis over BLOCK derives B_BLOCK, so D is never
// (BLOCK, :), whether aligned statically, by DISTRIBUTE … WITH
// (transposed), with a constant subscript (N/2, folded) or as a CONNECT
// secondary of a redistributed primary.
func TestStaticVerdictMatchesRun(t *testing.T) {
	for name, src := range map[string]string{
		"static-identity": `
PARAMETER (N = 16)
REAL C(N,N) DIST (BLOCK, :)
REAL D(N,N) ALIGN D(I,J) WITH C(I,J)
IF (IDT(D, (BLOCK, :))) THEN
  X1 = 1
ELSE
  X1 = 2
ENDIF
IF (IDT(D, (B_BLOCK(*), :))) THEN
  X2 = 1
ELSE
  X2 = 2
ENDIF
`,
		"distribute-with-transposed": `
PARAMETER (N = 16)
REAL C(N,N) DYNAMIC, DIST (BLOCK, :)
REAL D(N,N) DYNAMIC
DISTRIBUTE D :: D(I,J) WITH C(J,I)
IF (IDT(D, (BLOCK, :))) THEN
  X1 = 1
ELSE
  X1 = 2
ENDIF
IF (IDT(D, (:, B_BLOCK(*)))) THEN
  X2 = 1
ELSE
  X2 = 2
ENDIF
`,
		"static-constant-quotient": `
PARAMETER (N = 16)
REAL C(N,N) DIST (BLOCK, :)
REAL D(N) ALIGN D(I) WITH C(I, N/2)
IF (IDT(D, (BLOCK))) THEN
  X1 = 1
ELSE
  X1 = 2
ENDIF
IF (IDT(D, (B_BLOCK(*)))) THEN
  X2 = 1
ELSE
  X2 = 2
ENDIF
`,
		"connect-secondary": `
PARAMETER (N = 16)
REAL C(N,N) DYNAMIC, DIST (BLOCK, :)
REAL D(N,N) DYNAMIC, CONNECT D(I,J) WITH C(J,I)
DISTRIBUTE C :: (:, BLOCK)
IF (IDT(D, (BLOCK, :))) THEN
  X1 = 1
ELSE
  X1 = 2
ENDIF
DISTRIBUTE C :: (:, CYCLIC(2))
IF (IDT(D, (CYCLIC(2), :))) THEN
  X2 = 1
ELSE
  X2 = 2
ENDIF
`,
	} {
		r := analyze(t, src)
		res, err := apps.RunListing(r.Unit, 4, apps.Runtime{})
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		if len(r.Conds) != 2 {
			t.Fatalf("%s: %d IF verdicts, want 2", name, len(r.Conds))
		}
		for k, c := range r.Conds {
			want := map[Verdict]float64{Always: 1, Never: 2}[c.Verdict]
			if got := res.Scalars[fmt.Sprintf("X%d", k+1)]; want == 0 || got != want {
				t.Errorf("%s: IF at %v evaluated %v, the run set X%d = %v", name, c.Pos, c.Verdict, k+1, got)
			}
		}
	}
}

// TestStrideOverCyclicDiagnosed: a stride over a CYCLIC dimension is
// refused at run time, so the analysis reports it at the declaration or
// the DISTRIBUTE, names the array and the CYCLIC type, and derives "*".
func TestStrideOverCyclicDiagnosed(t *testing.T) {
	for _, c := range []struct{ src, at string }{
		{`
PARAMETER (N = 16)
REAL C(N) DIST (CYCLIC)
REAL D(N/2) ALIGN D(I) WITH C(2*I)
X = 1
`, "4:1"},
		{`
PARAMETER (N = 16)
REAL C(N) DYNAMIC, DIST (BLOCK)
REAL D(N/2) DYNAMIC, CONNECT D(I) WITH C(2*I)
DISTRIBUTE C :: (CYCLIC)
X = 1
`, "5:1"},
	} {
		r := analyze(t, c.src)
		if got := r.Final["D"].String(); got != "{(*)}" {
			t.Errorf("D reaches %s, want {(*)}", got)
		}
		var found bool
		for _, d := range r.Diags {
			s := d.String()
			found = found || strings.HasPrefix(s, c.at+": error: D ") && strings.Contains(s, "(CYCLIC)") && strings.Contains(s, "stride 2")
		}
		if !found {
			t.Errorf("no stride-over-CYCLIC diagnostic for D at %s: %v", c.at, r.Diags)
		}
		if _, err := apps.RunListing(r.Unit, 4, apps.Runtime{}); err == nil || !strings.Contains(err.Error(), "stride 2 over CYCLIC") {
			t.Errorf("run: err = %v, want the stride refusal", err)
		}
	}
}

// TestConstructPatternProperty: over seeded (primary type, alignment,
// processor shape) triples at P = 1…6, the pattern the analysis derives
// from the primary's abstract type (dist.ConstructPattern) has the kinds
// of the type dist.Construct derives at run time, or both refuse; and a
// query the analysis decides (Always or Never) is decided the same way
// by the run's type.
func TestConstructPatternProperty(t *testing.T) {
	const trials = 10000
	rng := rand.New(rand.NewSource(59))
	machines := make([]*machine.Machine, 7)
	for p := 1; p <= 6; p++ {
		machines[p] = machine.New(p)
		defer machines[p].Close()
	}
	kinds := []dist.DimPattern{dist.PAny(), dist.PBlock(), dist.PBBlock(), dist.PSBlock(),
		dist.PCyclic(1), dist.PCyclic(2), dist.PCyclicAny(), dist.PElided()}
	var queries []dist.Pattern
	for _, a := range kinds {
		queries = append(queries, dist.NewPattern(a))
		for _, b := range kinds {
			queries = append(queries, dist.NewPattern(a, b))
		}
	}
	var refused, decided int
	for trial := 0; trial < trials; trial++ {
		c := genAligned(rng, machines)
		b, err := dist.New(dist.NewType(c.specs...), c.bDom, c.target)
		if err != nil {
			t.Fatalf("trial %d: primary %v: %v", trial, c, err)
		}
		a, runErr := dist.Construct(c.al, b, c.aDom)
		p, err := dist.ConstructPattern(c.al, c.abstract, c.aDom.Rank())
		if (runErr == nil) != (err == nil) {
			t.Fatalf("trial %d: %v: run %v, analysis %v (%v)", trial, c, runErr, err, p)
		}
		if runErr != nil {
			refused++
			continue
		}
		typ := a.DistType()
		for i, d := range p.Dims {
			if d.Any || d.Kind != typ.Dims[i].Kind || !p.Matches(typ) {
				t.Fatalf("trial %d: %v: analysis derives %v, the run %v", trial, c, p, typ)
			}
		}
		for _, q := range queries {
			v, _ := query(q, TypeSet{{Type: p}})
			if v != Maybe && (v == Always) != q.Matches(typ) {
				t.Fatalf("trial %d: %v: IDT(%v) is %v over %v, the run's %v", trial, c, q, v, p, typ)
			}
			if v != Maybe {
				decided++
			}
		}
	}
	t.Logf("%d triples, %d refused by both, %d query verdicts decided", trials, refused, decided)
}

// alignedCase is one generated triple: a primary of type specs on bDom
// over target, the abstract type the analysis sees for it, and an array
// on aDom aligned with it by al.
type alignedCase struct {
	specs    []dist.DimSpec
	abstract dist.Pattern
	bDom     index.Domain
	target   dist.Target
	al       dist.Alignment
	aDom     index.Domain
}

func (c alignedCase) String() string {
	return fmt.Sprintf("A%v %v over B%v %v TO %v", c.aDom, c.al, c.bDom, dist.NewType(c.specs...), c.target)
}

// genAligned draws a valid triple: every axis image lies inside the
// primary's bounds, and every irregular specifier fits its extent and
// processor count.  Axes are identity, offset, stride, transposed or
// constant; some source dimensions no axis references.
func genAligned(rng *rand.Rand, machines []*machine.Machine) alignedCase {
	ra, rb := 1+rng.Intn(3), 1+rng.Intn(3)
	aExt := make([]int, ra)
	for i := range aExt {
		aExt[i] = 1 + rng.Intn(10)
	}
	var c alignedCase
	bExt := make([]int, rb)
	free := rng.Perm(ra)
	for j := range bExt {
		if len(free) == 0 || rng.Intn(5) == 0 {
			bExt[j] = 1 + rng.Intn(12)
			c.al.Maps = append(c.al.Maps, dist.AxisConst(1+rng.Intn(bExt[j])))
			continue
		}
		i := free[0]
		free = free[1:]
		s := []int{1, 1, 1, 2, 3}[rng.Intn(5)]
		o := 1 - s + rng.Intn(s+3) // the image of index 1 is at least 1
		bExt[j] = s*aExt[i] + o + rng.Intn(4)
		c.al.Maps = append(c.al.Maps, dist.AxisAffine(i, s, o))
	}
	// the primary's kinds, then a processor shape with a dimension for
	// each distributed one and maybe one more (replication)
	kinds := make([]dist.Kind, rb)
	nd := 0
	for j := range kinds {
		kinds[j] = []dist.Kind{dist.Block, dist.Cyclic, dist.SBlock, dist.BBlock, dist.Elided}[rng.Intn(5)]
		if kinds[j] != dist.Elided {
			nd++
		}
	}
	p := 1 + rng.Intn(6)
	shape := make([]int, max(nd+rng.Intn(2), 1))
	rest := p
	for k := range shape[:len(shape)-1] {
		var divs []int
		for d := 1; d <= rest; d++ {
			if rest%d == 0 {
				divs = append(divs, d)
			}
		}
		shape[k] = divs[rng.Intn(len(divs))]
		rest /= shape[k]
	}
	shape[len(shape)-1] = rest
	c.target = machines[p].ProcsDim(fmt.Sprint("R", shape), shape...).Whole()
	td := 0
	for j, k := range kinds {
		var s dist.DimSpec
		var abs dist.DimPattern
		switch k {
		case dist.Block:
			s, abs = dist.BlockDim(), dist.PBlock()
		case dist.Cyclic:
			s = dist.CyclicDim(1 + rng.Intn(3))
			abs = dist.PCyclic(s.K)
			if rng.Intn(4) == 0 {
				abs = dist.PCyclicAny() // CYCLIC(K) with a run-time K
			}
		case dist.SBlock:
			sizes := cuts(rng, bExt[j], shape[td])
			for q := len(sizes) - 1; q > 0; q-- {
				sizes[q] -= sizes[q-1]
			}
			s, abs = dist.SBlockDim(sizes...), dist.PSBlock()
		case dist.BBlock:
			s, abs = dist.BBlockDim(cuts(rng, bExt[j], shape[td])...), dist.PBBlock()
		default:
			s, abs = dist.ElidedDim(), dist.PElided()
		}
		if k != dist.Elided {
			td++
		}
		c.specs = append(c.specs, s)
		c.abstract.Dims = append(c.abstract.Dims, abs)
	}
	c.aDom, c.bDom = index.Dim(aExt...), index.Dim(bExt...)
	return c
}

// cuts returns np non-decreasing upper bounds in 0..n, the last n.
func cuts(rng *rand.Rand, n, np int) []int {
	out := make([]int, np)
	for q := range out {
		out[q] = rng.Intn(n + 1)
	}
	out[np-1] = n
	for q := np - 2; q >= 0; q-- {
		out[q] = min(out[q], out[q+1])
	}
	return out
}
