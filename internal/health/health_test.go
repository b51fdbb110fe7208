package health

import (
	"math/rand/v2"
	"sort"
	"testing"
)

// report is rank's line of s's health report.
func report(s *Scorer, rank int) RankReport { return s.Report([]int{rank})[0] }

// feed folds one per-unit-cost observation into rank's score: each call
// advances the cumulative counters by (units, units×cost) so the delta
// scored is exactly cost seconds per unit.
type feeder struct {
	seq   []int64
	units []float64
	secs  []float64
}

func newFeeder(np int) *feeder {
	return &feeder{seq: make([]int64, np), units: make([]float64, np), secs: make([]float64, np)}
}

func (f *feeder) feed(s *Scorer, rank int, cost float64) {
	f.seq[rank]++
	f.units[rank] += 100
	f.secs[rank] += 100 * cost
	s.Observe(rank, f.seq[rank], f.units[rank], f.secs[rank])
}

// warm gives every rank of the 4-rank scorer w nominal-cost rounds.
func warm(s *Scorer, f *feeder, rounds int) {
	for i := 0; i < rounds; i++ {
		for r := 0; r < 4; r++ {
			f.feed(s, r, 1.0)
		}
	}
}

// TestHealthDetectsStraggler: a persistent 8× rank crosses Degraded after
// the hysteresis streak; the healthy ranks stay put.
func TestHealthDetectsStraggler(t *testing.T) {
	s := New(4, Config{Window: 4, DegradedRatio: 2, Hysteresis: 3})
	f := newFeeder(4)
	warm(s, f, 4)
	for i := 0; i < 12; i++ {
		for r := 0; r < 3; r++ {
			f.feed(s, r, 1.0)
		}
		f.feed(s, 3, 8.0)
	}
	if c := report(s, 3).Class; c != Degraded {
		t.Fatalf("8x rank classified %v after 12 rounds, want degraded", c)
	}
	for r := 0; r < 3; r++ {
		if c := report(s, r).Class; c != Healthy {
			t.Fatalf("healthy rank %d classified %v", r, c)
		}
	}
	if sd := report(s, 3).Slowdown; sd < 4 {
		t.Fatalf("slowdown(3) = %.2f, want ≈8", sd)
	}
	rep := s.Report([]int{0, 1, 2, 3})
	if !rep[3].EverDegraded || rep[0].EverDegraded {
		t.Fatalf("EverDegraded flags wrong: %+v", rep)
	}
	if worst, ok := s.Worst([]int{0, 1, 2, 3}); !ok || worst != 3 {
		t.Fatalf("Worst = (%d, ok=%v), want rank 3", worst, ok)
	}
}

// TestHysteresisSingleSlowStepNeverFlips: the satellite's exact claim —
// one slow observation (however extreme) must not change the
// classification, at any configured hysteresis.
func TestHysteresisSingleSlowStepNeverFlips(t *testing.T) {
	for _, hyst := range []int{0, 1, 2, 3, 5} {
		s := New(4, Config{Window: 2, DegradedRatio: 1.5, Hysteresis: hyst})
		f := newFeeder(4)
		warm(s, f, 4)
		// One catastrophic step on rank 2: a 100× pause.
		for r := 0; r < 2; r++ {
			f.feed(s, r, 1.0)
		}
		f.feed(s, 2, 100.0)
		f.feed(s, 3, 1.0)
		if c := report(s, 2).Class; c != Healthy {
			t.Fatalf("hysteresis=%d: a single slow step flipped rank 2 to %v", hyst, c)
		}
	}
}

// TestPauseEchoNeverFlips: one pause followed by nominal steps must not
// flip a rank, even though the EWMA stays far above the median for
// several observations afterwards.
func TestPauseEchoNeverFlips(t *testing.T) {
	for _, hyst := range []int{2, 3} {
		s := New(4, Config{Window: 4, DegradedRatio: 2, Hysteresis: hyst})
		f := newFeeder(4)
		warm(s, f, 4)
		f.feed(s, 1, 100.0)
		for i := 0; i < 8; i++ {
			for r := 0; r < 4; r++ {
				f.feed(s, r, 1.0)
			}
			if rep := report(s, 1); rep.Class != Healthy || rep.EverDegraded {
				t.Fatalf("hysteresis=%d: round %d after one pause rank 1 is %v (ever degraded %v)", hyst, i, rep.Class, rep.EverDegraded)
			}
		}
	}
}

// TestStreakSurvivesBandFlicker: a straggler whose cost flickers between
// 2.5× and 10× the median is classified after one streak: every slow
// observation counts toward it, however slow.
func TestStreakSurvivesBandFlicker(t *testing.T) {
	s := New(4, Config{Window: 4, DegradedRatio: 2, Hysteresis: 3})
	f := newFeeder(4)
	warm(s, f, 4)
	for i, cost := range []float64{20, 5, 20} {
		for r := 0; r < 3; r++ {
			f.feed(s, r, 1.0)
		}
		f.feed(s, 3, cost)
		if c := report(s, 3).Class; i < 2 && c != Healthy {
			t.Fatalf("rank 3 classified %v after %d observations", c, i+1)
		}
	}
	if c := report(s, 3).Class; c != Degraded {
		t.Fatalf("flickering straggler = %v after 3 slow observations, want degraded", c)
	}
}

// TestHysteresisRecovery: a rank that was Degraded returns to Healthy
// only after a full streak of nominal observations — and its
// EverDegraded flag stays set for the run's report.
func TestHysteresisRecovery(t *testing.T) {
	s := New(4, Config{Window: 2, DegradedRatio: 2, Hysteresis: 3})
	f := newFeeder(4)
	warm(s, f, 4)
	for i := 0; i < 10; i++ {
		for r := 0; r < 3; r++ {
			f.feed(s, r, 1.0)
		}
		f.feed(s, 3, 4.0)
	}
	if c := report(s, 3).Class; c != Degraded {
		t.Fatalf("rank 3 = %v, want degraded", c)
	}
	// Recovery: nominal again.  The short window forgets fast; the
	// class must lag by the hysteresis streak, then flip back.
	flipped := -1
	for i := 0; i < 12; i++ {
		for r := 0; r < 4; r++ {
			f.feed(s, r, 1.0)
		}
		if report(s, 3).Class == Healthy {
			flipped = i
			break
		}
	}
	if flipped < 0 {
		t.Fatal("recovered rank never reclassified healthy")
	}
	if flipped < 2 {
		t.Fatalf("reclassified healthy after %d rounds, want >= hysteresis lag", flipped+1)
	}
	if !s.Report([]int{3})[0].EverDegraded {
		t.Fatal("EverDegraded cleared by recovery")
	}
}

// TestHealthDedupBySeq: replaying the same report sequence must fold in
// exactly one observation.
func TestHealthDedupBySeq(t *testing.T) {
	s := New(2, Config{})
	for i := 0; i < 5; i++ { // same report, five monitors
		s.Observe(1, 1, 100, 100)
	}
	if n := report(s, 1).Observations; n != 1 {
		t.Fatalf("observations = %d after replaying seq 1 five times, want 1", n)
	}
	s.Observe(1, 0, 50, 50) // stale sequence: ignored
	if n := report(s, 1).Observations; n != 1 {
		t.Fatalf("stale sequence was scored: observations = %d", n)
	}
}

// TestHealthSpeeds: the weights handed to a throughput-aware rebalance —
// the straggler's relative speed is ≈ 1/slowdown, healthy ranks ≈ 1.
func TestHealthSpeeds(t *testing.T) {
	s := New(4, Config{Window: 4})
	f := newFeeder(4)
	for i := 0; i < 16; i++ {
		for r := 0; r < 3; r++ {
			f.feed(s, r, 1.0)
		}
		f.feed(s, 3, 8.0)
	}
	sp := s.Speeds([]int{0, 1, 2, 3})
	for r := 0; r < 3; r++ {
		if sp[r] < 0.9 || sp[r] > 1.1 {
			t.Fatalf("healthy rank %d speed = %.3f, want ≈1", r, sp[r])
		}
	}
	if sp[3] > 0.2 {
		t.Fatalf("straggler speed = %.3f, want ≈0.125", sp[3])
	}
}

// TestHealthNoObservationsIsHealthy: before any report everything is
// Healthy at slowdown 1 — the policy has nothing to act on.
func TestHealthNoObservationsIsHealthy(t *testing.T) {
	s := New(3, Config{})
	if _, ok := s.Worst([]int{0, 1, 2}); ok {
		t.Fatal("Worst found a straggler in an empty scorer")
	}
	if report(s, 1).Class != Healthy || report(s, 1).Slowdown != 1 {
		t.Fatal("unobserved rank not nominal")
	}
	sp := s.Speeds([]int{0, 1, 2})
	for i, v := range sp {
		if v != 1 {
			t.Fatalf("speed[%d] = %v, want 1", i, v)
		}
	}
}

// TestHealthDefaultsClampHysteresis: the defaulting must never allow a
// hysteresis that lets one observation flip a class.
func TestHealthDefaultsClampHysteresis(t *testing.T) {
	if h := (Config{Hysteresis: 1}).withDefaults().Hysteresis; h < 2 {
		t.Fatalf("Hysteresis=1 defaulted to %d, want >= 2", h)
	}
	c := Config{}.withDefaults()
	if c.Window <= 0 || c.DegradedRatio <= 1 || c.Hysteresis < 2 {
		t.Fatalf("zero config defaults unusable: %+v", c)
	}
}

// TestDecisionStrings: the decisions print their names.
func TestDecisionStrings(t *testing.T) {
	for d, want := range map[Decision]string{
		Hold: "hold", Rebalance: "rebalance", Drain: "drain",
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

// twoBand is the scorer as it was with a second slow band, Suspect, at
// SuspectRatio = 3 × DegradedRatio: Observe, the median and reclassify
// verbatim, with the band-merge rule that lets Degraded and Suspect
// observations count toward one streak.  TestOneBandMatchesTwoBand holds
// the one-band scorer to it.
type twoBand struct {
	cfg   Config
	susp  float64
	ranks []refRank
	costs []float64
}

// refRank is a rank's state in the reference: the scorer's, plus the
// class its hysteresis streak argues for.
type refRank struct {
	seq         int64
	units, secs float64
	n           int
	cost        float64
	class       Class
	candidate   Class
	streak      int
	everDegr    bool
}

// suspect is the reference's second slow class.
const suspect = Degraded + 1

func newTwoBand(np int, cfg Config) *twoBand {
	cfg = cfg.withDefaults()
	return &twoBand{cfg: cfg, susp: 3 * cfg.DegradedRatio, ranks: make([]refRank, np)}
}

func (s *twoBand) observe(rank int, seq int64, units, secs float64) {
	st := &s.ranks[rank]
	if seq <= st.seq {
		return
	}
	du, ds := units-st.units, secs-st.secs
	st.seq, st.units, st.secs = seq, units, secs
	if du <= 0 || ds < 0 {
		return
	}
	cost := ds / du
	if st.n == 0 {
		st.cost = cost
	} else {
		alpha := 2 / float64(s.cfg.Window+1)
		st.cost = alpha*cost + (1-alpha)*st.cost
	}
	st.n++
	s.reclassify(rank, cost)
}

func (s *twoBand) reclassify(rank int, cost float64) {
	costs := s.costs[:0]
	for i := range s.ranks {
		if s.ranks[i].n > 0 {
			costs = append(costs, s.ranks[i].cost)
		}
	}
	s.costs = costs
	sort.Float64s(costs)
	med := costs[len(costs)/2]
	if len(costs)%2 == 0 {
		med = (costs[len(costs)/2-1] + med) / 2
	}
	st := &s.ranks[rank]
	if med <= 0 {
		return
	}
	ratio := min(cost, st.cost) / med
	target := Healthy
	switch {
	case ratio >= s.susp:
		target = suspect
	case ratio >= s.cfg.DegradedRatio:
		target = Degraded
	}
	if target == st.class {
		st.streak = 0
		return
	}
	switch {
	case target == st.candidate:
		st.streak++
	case st.streak > 0 && target >= Degraded && st.candidate >= Degraded:
		st.candidate = min(target, st.candidate)
		st.streak++
	default:
		st.candidate = target
		st.streak = 1
	}
	if st.streak >= s.cfg.Hysteresis {
		st.class = st.candidate
		st.streak = 0
		if st.class >= Degraded {
			st.everDegr = true
		}
	}
}

// TestOneBandMatchesTwoBand: over 10 000 seeded random runs — Window
// 2–8, Hysteresis 2–4, slow ranks whose costs sit around and across
// DegradedRatio and 3 × DegradedRatio, with pauses and recoveries —
// the one-band scorer is Degraded exactly when the two-band reference is
// Degraded or Suspect, and sets EverDegraded at the same observation.
func TestOneBandMatchesTwoBand(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 1))
	var degraded, suspects, recoveries int
	for run := 0; run < 10000; run++ {
		np := 3 + rng.IntN(3)
		cfg := Config{
			Window:        2 + rng.IntN(7),
			DegradedRatio: 1.5 + 1.5*rng.Float64(),
			Hysteresis:    2 + rng.IntN(3),
		}
		got, ref := New(np, cfg), newTwoBand(np, cfg)
		dr := cfg.DegradedRatio
		// Each rank's cost is drawn from one of these around the median's
		// nominal 1: healthy noise, the Degraded line, the old Suspect
		// line, anywhere between and past them, and a pause.
		draw := func(slow bool) float64 {
			if !slow {
				return 0.8 + 0.4*rng.Float64()
			}
			switch rng.IntN(6) {
			case 0:
				return 0.8 + 0.4*rng.Float64()
			case 1:
				return dr * (0.9 + 0.2*rng.Float64())
			case 2:
				return 3 * dr * (0.9 + 0.2*rng.Float64())
			case 3:
				return dr * (0.8 + 2.6*rng.Float64())
			case 4:
				return 1 + 4*dr*rng.Float64()
			}
			return 30 + 70*rng.Float64()
		}
		units, secs := make([]float64, np), make([]float64, np)
		slow, order := make([]bool, np), make([]int, np)
		for r := range slow {
			slow[r], order[r] = rng.IntN(3) == 0, r
		}
		rounds := int64(8 + rng.IntN(24))
		for seq := int64(1); seq <= rounds; seq++ {
			if rng.IntN(8) == 0 { // a rank turns slow or recovers
				r := rng.IntN(np)
				slow[r] = !slow[r]
			}
			rng.Shuffle(np, func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, r := range order {
				du := float64(1 + rng.IntN(200))
				units[r] += du
				secs[r] += du * draw(slow[r])
				got.Observe(r, seq, units[r], secs[r])
				ref.observe(r, seq, units[r], secs[r])
				g, w := got.ranks[r], ref.ranks[r]
				if (g.class == Degraded) != (w.class >= Degraded) || g.everDegr != w.everDegr {
					t.Fatalf("run %d (np %d, %+v), rank %d at seq %d: one band %v (ever %v), two bands %d (ever %v)",
						run, np, cfg, r, seq, g.class, g.everDegr, w.class, w.everDegr)
				}
				if w.class == suspect {
					suspects++
				}
				if w.class == Degraded {
					degraded++
				}
				if g.class == Healthy && g.everDegr {
					recoveries++
				}
			}
		}
	}
	if degraded == 0 || suspects == 0 || recoveries == 0 {
		t.Fatalf("the runs never exercised a band: %d Degraded, %d Suspect, %d recovered observations", degraded, suspects, recoveries)
	}
}

// TestDecide: an acting policy names the Degraded member's view rank and
// hands over every member's speed; observing, a lone member or a healthy
// view holds.
func TestDecide(t *testing.T) {
	s := New(4, Config{Window: 4, DegradedRatio: 2, Hysteresis: 2})
	f := newFeeder(4)
	warm(s, f, 4)
	if dec, view, sp := Decide("drain", s, []int{0, 1, 2, 3}); dec != Hold || view != -1 || sp != nil {
		t.Fatalf("healthy view: Decide = (%v, %d, %v), want hold", dec, view, sp)
	}
	for i := 0; i < 4; i++ {
		for r := 0; r < 3; r++ {
			f.feed(s, r, 1.0)
		}
		f.feed(s, 3, 8.0)
	}
	members := []int{3, 0, 2} // view rank 0 is physical rank 3
	for policy, want := range map[string]Decision{"rebalance": Rebalance, "drain": Drain, "off": Hold, "": Hold} {
		dec, view, sp := Decide(policy, s, members)
		if dec != want || (want != Hold && (view != 0 || len(sp) != 3 || sp[0] > 0.5)) {
			t.Fatalf("%q: Decide = (%v, %d, %v), want %v at view rank 0", policy, dec, view, sp, want)
		}
	}
	if dec, _, _ := Decide("drain", s, []int{3}); dec != Hold {
		t.Fatalf("lone member: Decide = %v, want hold", dec)
	}
}
