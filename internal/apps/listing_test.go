package apps

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/machine"
)

// sums maps a listing run's arrays to their checksums.
func sums(res *ListingResult) map[string]float64 {
	out := map[string]float64{}
	for _, a := range res.Arrays {
		out[a.Name] = a.Sum
	}
	return out
}

// sameSums fails unless got and want hold the same bits for every name.
func sameSums(t *testing.T, what string, got, want *ListingResult, names ...string) {
	t.Helper()
	g, w := sums(got), sums(want)
	for _, n := range names {
		if math.Float64bits(g[n]) != math.Float64bits(w[n]) {
			t.Errorf("%s: %s sums to %v, the plain run's to %v", what, n, g[n], w[n])
		}
	}
}

// TestListingRecoverFewerRanks: a listing checkpointed every 5th trip of
// its driver loop on 4 ranks resumes on 3 after the 10th and finishes
// with the same values: the first loop and the DISTRIBUTE, its fresh
// start, are skipped, and the +1 pass applies once to every element.
func TestListingRecoverFewerRanks(t *testing.T) {
	unit := checked(t, `
PARAMETER (N = 12)
REAL A(N) DYNAMIC, DIST(BLOCK)
DO I = 1, N
  A(I) = I * I
ENDDO
DISTRIBUTE A :: (CYCLIC)
DO I = 1, N
  A(I) = A(I) + 1
ENDDO
`)
	dir := t.TempDir()
	want, err := RunListing(unit, 4, Runtime{CkptDir: dir, CkptEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunListing(unit, 3, Runtime{CkptDir: dir, Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.ResumedIter != 9 {
		t.Fatalf("resumed after trip %d, want 9 (the 10th)", got.ResumedIter+1)
	}
	sameSums(t, "recovered on 3", got, want, "A")
	if a := want.Arrays[0]; a.Sum != 662 || a.Dist != "(CYCLIC)" {
		t.Fatalf("plain run: A sums to %v under %s, want 662 under (CYCLIC)", a.Sum, a.Dist)
	}
	if got.Scalars["I"] != 12 {
		t.Fatalf("I = %v after the recovered run, want 12", got.Scalars["I"])
	}
}

// TestPICFig2RecoverFewerRanks: Figure 2 checkpointed on 4 ranks resumes
// on 3 after its 56th step.  BOUNDS($NP) has no counterpart on 3 ranks
// and keeps its declared value until BALANCE rewrites it; FIELD and
// COUNT come out as the plain run's.
func TestPICFig2RecoverFewerRanks(t *testing.T) {
	unit := checked(t, Fig2Source)
	dir := t.TempDir()
	plain, err := RunListing(unit, 4, Runtime{CkptDir: dir, CkptEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RunListing(unit, 3, Runtime{CkptDir: dir, Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.ResumedIter != 55 || rec.Scalars["K"] != 60 {
		t.Fatalf("resumed after step %d and ended at K = %v, want 56 and 60", rec.ResumedIter+1, rec.Scalars["K"])
	}
	sameSums(t, "recovered on 3", rec, plain, "FIELD", "COUNT")
}

// TestOnlineRecoverFig2: the interpreted Figure 2 loses rank 2 in its
// 31st step, and the survivors regroup, replay the last checkpoint and
// finish in the same run with the plain run's FIELD and COUNT.  They
// re-execute at most CkptEvery steps: the steps rank 0 began on epoch 0
// that it begins again after the restore, each one UPDATE_FIELD call.
func TestOnlineRecoverFig2(t *testing.T) {
	unit := checked(t, Fig2Source)
	plain, err := RunListing(unit, 4, Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	rt := Runtime{
		CkptEvery: 4, CommTimeout: 150 * time.Millisecond, CommRetries: 2,
		Liveness: testLiveness(), OnlineRecover: true,
	}
	after := killAfter(t, 2, 30, 0, func() error {
		dry := rt
		dry.CkptDir = t.TempDir()
		dry.Integrity = true // offers framed, as under the fault plan
		_, err := RunListing(unit, 4, dry)
		return err
	})
	rt.CkptDir = t.TempDir()
	rt.Fault = fmt.Sprintf("drop,rank=2,after=%d", after)
	var began [2][]int // rank 0's steps on epoch 0 and after it
	testHookStep = func(ctx *machine.Ctx, it int) {
		if ctx.PhysRank() == 0 {
			e := min(ctx.Epoch(), 1)
			began[e] = append(began[e], it)
		}
	}
	defer func() { testHookStep = nil }()
	res, err := RunListing(unit, 4, rt)
	if err != nil {
		t.Fatalf("online recovery (after=%d): %v", after, err)
	}
	if res.FinalEpoch < 1 || len(began[1]) == 0 {
		t.Fatalf("finished on epoch %d: the kill never triggered a regroup", res.FinalEpoch)
	}
	if redone := began[0][len(began[0])-1] - began[1][0] + 1; redone > rt.CkptEvery {
		t.Errorf("began steps up to %d on epoch 0 and resumed at %d: %d re-executed, CkptEvery is %d",
			began[0][len(began[0])-1], began[1][0], redone, rt.CkptEvery)
	}
	sameSums(t, "online recovery", res, plain, "FIELD", "COUNT")
}
