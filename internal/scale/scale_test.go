package scale

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-12+1e-9*math.Abs(want) {
		t.Errorf("%s = %g, want %g", name, got, want)
	}
}

func TestStepTimeScaling(t *testing.T) {
	s := PerStep{Compute: 8, Comm: 1, Idle: 2}
	approx(t, "same np", StepTime(s, 4, 4), 11)
	// doubling np halves compute, doubles idle, keeps comm
	approx(t, "doubled np", StepTime(s, 4, 8), 8.0/2+1+2*2)
	// halving np doubles compute, halves idle
	approx(t, "halved np", StepTime(s, 4, 2), 8.0*2+1+2.0/2)
}

func TestRecommendGrowCrossover(t *testing.T) {
	// Compute-dominated: growing 4 -> 8 gains 4 - 0.1 = 3.9 s/step.
	p := Params{NP: 4, NPNew: 8, Step: PerStep{Compute: 8, Comm: 1, Idle: 0.1}, Redist: 10}
	// gain/step = (8+1+0.1) - (4+1+0.2) = 3.9; break-even = ceil(10/3.9) = 3
	p.StepsLeft = 2 // 2*3.9 = 7.8 < 10: does not amortize
	if a := Recommend(p); a.Decision != Hold {
		t.Errorf("2 steps left: got %v, want hold (%v)", a.Decision, a)
	}
	p.StepsLeft = 3 // 3*3.9 = 11.7 > 10: grows
	a := Recommend(p)
	if a.Decision != Grow {
		t.Errorf("3 steps left: got %v, want grow (%v)", a.Decision, a)
	}
	if a.BreakEven != 3 {
		t.Errorf("break-even = %d, want 3", a.BreakEven)
	}
	approx(t, "net", a.Net, 3*3.9-10)
}

func TestRecommendShrinkWhenIdleDominated(t *testing.T) {
	// Idle/comm dominated: halving the machine wins.
	p := Params{NP: 8, NPNew: 4, StepsLeft: 100,
		Step: PerStep{Compute: 1, Comm: 2, Idle: 8}, Redist: 5}
	// tCur = 11, tNew = 1*2 + 2 + 8/2 = 8, gain 3/step
	a := Recommend(p)
	if a.Decision != Shrink {
		t.Errorf("got %v, want shrink (%v)", a.Decision, a)
	}
	approx(t, "gain", a.Gain, 3)
}

func TestRecommendHoldsOnLoss(t *testing.T) {
	// Comm/idle dominated: growing only adds idle — no horizon pays.
	p := Params{NP: 4, NPNew: 8, StepsLeft: 1 << 20,
		Step: PerStep{Compute: 1, Comm: 1, Idle: 4}, Redist: 0}
	a := Recommend(p)
	if a.Decision != Hold {
		t.Errorf("got %v, want hold (%v)", a.Decision, a)
	}
	if a.Gain >= 0 {
		t.Errorf("gain = %g, want negative", a.Gain)
	}
	if a.BreakEven != -1 {
		t.Errorf("break-even = %d, want -1 (never)", a.BreakEven)
	}
}

func TestRecommendDegenerate(t *testing.T) {
	for _, p := range []Params{
		{NP: 0, NPNew: 4, StepsLeft: 10, Step: PerStep{Compute: 1}},
		{NP: 4, NPNew: 0, StepsLeft: 10, Step: PerStep{Compute: 1}},
		{NP: 4, NPNew: 4, StepsLeft: 10, Step: PerStep{Compute: 1}},
		{NP: 4, NPNew: 8, StepsLeft: 0, Step: PerStep{Compute: 1}},
	} {
		if a := Recommend(p); a.Decision != Hold {
			t.Errorf("Recommend(%+v) = %v, want hold", p, a.Decision)
		}
	}
}

func TestRedistCost(t *testing.T) {
	s := &trace.Summary{Phases: []trace.PhaseStat{
		{Cat: trace.CatDistribute, Name: "DISTRIBUTE V", Count: 4, VTime: 8},   // 2 per instance
		{Cat: trace.CatDistribute, Name: "DISTRIBUTE W", Count: 2, VTime: 1},   // 0.5 per instance
		{Cat: trace.CatPhase, Name: "iterate", Count: 1, VTime: 100},           // not a DISTRIBUTE
		{Cat: trace.CatDistribute, Name: "DISTRIBUTE Z", Count: 0, VTime: 100}, // never ran
	}}
	approx(t, "redist cost", RedistCost(s), 2.5)
	approx(t, "nil summary", RedistCost(nil), 0)
}
