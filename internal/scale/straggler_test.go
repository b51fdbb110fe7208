package scale

import (
	"fmt"
	"testing"
)

// TestDecisionStrings: the new decisions print their names.
func TestDecisionStrings(t *testing.T) {
	for d, want := range map[Decision]string{
		Hold: "hold", Grow: "grow", Shrink: "shrink",
		Rebalance: "rebalance", Drain: "drain",
	} {
		if d.String() != want {
			t.Fatalf("Decision(%d).String() = %q, want %q", d, d.String(), want)
		}
	}
}

// TestFairShares: speeds normalize to shares; non-positive speeds are
// clamped, not divided by.
func TestFairShares(t *testing.T) {
	sh := FairShares([]float64{1, 1, 1, 0.125})
	sum := 0.0
	for _, v := range sh {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum %.4f, want 1", sum)
	}
	if sh[3] > sh[0]/4 {
		t.Fatalf("straggler share %.4f not ≈1/8 of healthy %.4f", sh[3], sh[0])
	}
	sh = FairShares([]float64{0, -1, 0})
	for i, v := range sh {
		if v < 0.3 || v > 0.35 {
			t.Fatalf("all-non-positive speeds: share[%d] = %.4f, want even split", i, v)
		}
	}
	if got := FairShares(nil); len(got) != 0 {
		t.Fatalf("FairShares(nil) = %v", got)
	}
}

// TestWeightedBounds: equal speeds reproduce the even block split;
// weighted speeds shrink the straggler's block; the bounds are always a
// valid non-decreasing cover of 1..n.
func TestWeightedBounds(t *testing.T) {
	b := WeightedBounds(100, []float64{1, 1, 1, 1})
	want := []int{25, 50, 75, 100}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("even bounds = %v, want %v", b, want)
		}
	}
	b = WeightedBounds(96, []float64{1, 1, 1, 0.125})
	if b[3] != 96 {
		t.Fatalf("last bound %d, want 96", b[3])
	}
	last := 0
	for i, v := range b {
		if v < last {
			t.Fatalf("bounds %v not non-decreasing at %d", b, i)
		}
		last = v
	}
	straggler := b[3] - b[2]
	healthy := b[0]
	if straggler >= healthy/2 {
		t.Fatalf("straggler block %d rows vs healthy %d: not shrunk (bounds %v)", straggler, healthy, b)
	}
	if straggler < 1 {
		t.Fatalf("straggler starved to %d rows (bounds %v)", straggler, b)
	}
}

func TestCountBounds(t *testing.T) {
	counts := []float64{10, 10, 10, 10, 0, 0, 0, 0}
	b := CountBounds(counts, 4)
	if b[3] != 8 {
		t.Fatalf("last bound = %d", b[3])
	}
	// each processor should get ~10 particles: bounds 1,2,3,8
	if b[0] != 1 || b[1] != 2 || b[2] != 3 {
		t.Fatalf("bounds = %v", b)
	}
	// degenerate: everything in one cell
	b = CountBounds([]float64{0, 0, 100, 0}, 2)
	if b[1] != 4 || b[0] < 2 {
		t.Fatalf("bounds = %v", b)
	}
	// heavy cells: one bound per cell, where the even weighted split
	// closes two blocks at cell 1 and two at cell 3
	heavy := []float64{93, 0, 65, 0, 0, 0, 0, 0, 20}
	if b := CountBounds(heavy, 5); fmt.Sprint(b) != "[1 2 3 4 9]" {
		t.Fatalf("bounds = %v, want [1 2 3 4 9]", b)
	}
	if b := WeightedCountBounds(heavy, []float64{0.2, 0.2, 0.2, 0.2, 0.2}); fmt.Sprint(b) != "[1 1 3 3 9]" {
		t.Fatalf("even weighted bounds = %v, want [1 1 3 3 9]", b)
	}
}

// TestWeightedCountBounds: a processor with half the work share ends its
// segment at half the particles, and a share past the last particle
// still ends at the last cell.
func TestWeightedCountBounds(t *testing.T) {
	counts := []float64{10, 10, 10, 10, 10, 10, 10, 10}
	if b := WeightedCountBounds(counts, []float64{0.5, 0.25, 0.25}); b[0] != 4 || b[1] != 6 || b[2] != 8 {
		t.Fatalf("bounds = %v, want [4 6 8]", b)
	}
	if b := WeightedCountBounds([]float64{0, 5, 0}, []float64{0.25, 0.75}); b[0] != 2 || b[1] != 3 {
		t.Fatalf("bounds = %v, want [2 3]", b)
	}
}
