package redist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
)

func targets(t *testing.T, np int) dist.Target {
	t.Helper()
	m := machine.New(np)
	t.Cleanup(func() { m.Close() })
	return m.ProcsDim("P", np).Whole()
}

func TestScheduleBlockToCyclic(t *testing.T) {
	tg := targets(t, 2)
	dom := index.Dim(8)
	oldD := dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg)   // p0: 1-4, p1: 5-8
	newD := dist.MustNew(dist.NewType(dist.CyclicDim(1)), dom, tg) // p0: odd, p1: even
	s0 := Build(oldD, newD, 0, 2)
	// p0 owned 1-4; new: p0 gets odds {1,3}, p1 gets evens {2,4}
	if len(s0.Sends) != 2 {
		t.Fatalf("sends = %+v", s0.Sends)
	}
	for _, tr := range s0.Sends {
		if tr.Peer == 0 && tr.Count != 2 {
			t.Errorf("self-keep count = %d", tr.Count)
		}
		if tr.Peer == 1 && tr.Count != 2 {
			t.Errorf("send to 1 count = %d", tr.Count)
		}
	}
	if s0.LocalKeep.Empty() || s0.LocalKeep.Count() != 2 {
		t.Errorf("local keep = %v", s0.LocalKeep)
	}
	if s0.SendBytes() != 16 { // 2 elements * 8 bytes to remote peer
		t.Errorf("send bytes = %d", s0.SendBytes())
	}
	remote := 0
	for _, tr := range s0.Sends {
		if tr.Peer != s0.Rank {
			remote++
		}
	}
	if remote != 1 {
		t.Errorf("remote sends = %d", remote)
	}
}

func TestScheduleSymmetry(t *testing.T) {
	tg := targets(t, 4)
	dom := index.Dim(23)
	rng := rand.New(rand.NewSource(3))
	mk := func() *dist.Distribution {
		switch rng.Intn(3) {
		case 0:
			return dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg)
		case 1:
			return dist.MustNew(dist.NewType(dist.CyclicDim(1+rng.Intn(4))), dom, tg)
		default:
			b := make([]int, 4)
			acc := 0
			for i := 0; i < 3; i++ {
				acc += rng.Intn(23 - acc + 1)
				if acc > 23 {
					acc = 23
				}
				b[i] = acc
			}
			b[3] = 23
			return dist.MustNew(dist.NewType(dist.BBlockDim(b...)), dom, tg)
		}
	}
	for trial := 0; trial < 30; trial++ {
		oldD, newD := mk(), mk()
		scheds := make([]*Schedule, 4)
		for r := 0; r < 4; r++ {
			scheds[r] = Build(oldD, newD, r, 4)
		}
		// symmetry: r's send to q == q's recv from r (same grid count)
		for r := 0; r < 4; r++ {
			for _, snd := range scheds[r].Sends {
				found := false
				for _, rcv := range scheds[snd.Peer].Recvs {
					if rcv.Peer == r {
						found = true
						if rcv.Count != snd.Count {
							t.Fatalf("trial %d: asymmetric counts %d vs %d", trial, snd.Count, rcv.Count)
						}
					}
				}
				if !found {
					t.Fatalf("trial %d: %d sends to %d but no matching recv", trial, r, snd.Peer)
				}
			}
		}
		// coverage: total received counts == domain size
		total := 0
		for r := 0; r < 4; r++ {
			for _, rcv := range scheds[r].Recvs {
				total += rcv.Count
			}
		}
		if total != dom.Size() {
			t.Fatalf("trial %d: recv total %d != %d (old %v new %v)", trial, total, dom.Size(), oldD, newD)
		}
	}
}

func TestScheduleValuePreservationSimulated(t *testing.T) {
	// Simulate a full redistribution with schedules only: every element's
	// value must arrive at its new owner.
	tg := targets(t, 3)
	dom := index.Dim(10, 7)
	oldD := dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), dom, tg)
	newD := dist.MustNew(dist.NewType(dist.CyclicDim(2), dist.ElidedDim()), dom, tg)

	val := func(p index.Point) float64 { return float64(p[0]*100 + p[1]) }
	// "mailboxes": per new-owner, received (point, value) pairs
	got := make([]map[string]float64, 3)
	for r := range got {
		got[r] = map[string]float64{}
	}
	for r := 0; r < 3; r++ {
		s := Build(oldD, newD, r, 3)
		for _, tr := range s.Sends {
			tr.Grid.ForEach(func(p index.Point) bool {
				if !oldD.IsLocal(r, p) {
					t.Fatalf("rank %d sending non-local %v", r, p)
				}
				got[tr.Peer][p.String()] = val(p)
				return true
			})
		}
	}
	count := 0
	for r := 0; r < 3; r++ {
		g := newD.LocalGrid(r)
		g.ForEach(func(p index.Point) bool {
			v, ok := got[r][p.String()]
			if !ok {
				t.Fatalf("rank %d missing %v", r, p)
			}
			if v != val(p) {
				t.Fatalf("rank %d wrong value at %v", r, p)
			}
			count++
			return true
		})
	}
	if count != dom.Size() {
		t.Fatalf("covered %d of %d", count, dom.Size())
	}
}

func TestScheduleWithReplication(t *testing.T) {
	// old: BLOCK on 1-D view of 4 procs; new: BLOCK onto 2x2 (replicated
	// across dim 1).  Each element must reach both replicas, sent once
	// per (primary sender, replica receiver) pair.
	m := machine.New(4)
	defer m.Close()
	tg1 := m.ProcsDim("L", 4).Whole()
	tg2 := m.ProcsDim("G", 2, 2).Whole()
	dom := index.Dim(8)
	oldD := dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg1)
	newD := dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg2)
	recvTotal := 0
	for r := 0; r < 4; r++ {
		s := Build(oldD, newD, r, 4)
		for _, rcv := range s.Recvs {
			recvTotal += rcv.Count
		}
	}
	// every rank owns 4 elements under newD (replication degree 2)
	if recvTotal != 16 {
		t.Fatalf("recv total = %d, want 16", recvTotal)
	}
	// reverse direction: replicated -> non-replicated; only primaries send
	sendersSeen := map[int]bool{}
	for r := 0; r < 4; r++ {
		s := Build(newD, oldD, r, 4)
		for _, snd := range s.Sends {
			sendersSeen[r] = true
			_ = snd
		}
	}
	for r := range sendersSeen {
		if !newD.IsPrimaryRank(r) {
			t.Fatalf("non-primary rank %d sent data", r)
		}
	}
}

// budgetCase is one ParseBudget input with its verdict.
type budgetCase struct {
	in   string
	want int64
	err  bool
}

var parseBudgetCases = []budgetCase{
	{"", 0, false},
	{"0", 0, false},
	{"4096", 4096, false},
	{"4K", 4 << 10, false},
	{"4k", 4 << 10, false},
	{"2M", 2 << 20, false},
	{"1G", 1 << 30, false},
	{" 64K ", 64 << 10, false},
	{"-1", 0, true},
	{"x", 0, true},
	{"4T", 0, true},
}

func TestParseBudget(t *testing.T) {
	for _, c := range parseBudgetCases {
		got, err := ParseBudget(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseBudget(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("ParseBudget(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// parseBudgetOverflowCases probe every suffix just above and just below
// its overflow point, with and without whitespace.
var parseBudgetOverflowCases = []budgetCase{
	// the historical overflow reproducer
	{"99999999999999G", 0, true},
	// per-suffix boundaries: the largest n that still fits, and n+1
	{fmt.Sprintf("%d", int64(math.MaxInt64)), math.MaxInt64, false},
	{"9223372036854775808", 0, true}, // MaxInt64+1: strconv range error
	{fmt.Sprintf("%dK", math.MaxInt64>>10), (math.MaxInt64 >> 10) << 10, false},
	{fmt.Sprintf("%dK", math.MaxInt64>>10+1), 0, true},
	{fmt.Sprintf("%dM", math.MaxInt64>>20), (math.MaxInt64 >> 20) << 20, false},
	{fmt.Sprintf("%dM", math.MaxInt64>>20+1), 0, true},
	{fmt.Sprintf("%dG", math.MaxInt64>>30), (math.MaxInt64 >> 30) << 30, false},
	{fmt.Sprintf("%dG", math.MaxInt64>>30+1), 0, true},
	// whitespace must not change the verdict either way
	{fmt.Sprintf("  %dG  ", math.MaxInt64>>30), (math.MaxInt64 >> 30) << 30, false},
	{"  99999999999999G  ", 0, true},
}

// TestParseBudgetOverflow: n × multiplier must not wrap around int64 —
// before the range check, "99999999999999G" silently overflowed to a
// bogus (possibly negative) budget.
func TestParseBudgetOverflow(t *testing.T) {
	for _, c := range parseBudgetOverflowCases {
		got, err := ParseBudget(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseBudget(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if err != nil && !errors.Is(err, strconv.ErrRange) && !strings.Contains(err.Error(), "range") {
			t.Errorf("ParseBudget(%q) error %v is not a range error", c.in, err)
		}
		if !c.err && got != c.want {
			t.Errorf("ParseBudget(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// FuzzParseBudget, seeded from both tables above: any input either fails
// or yields a budget n >= 0, never a panic, and every accepted n is
// printed back and reparsed to itself.
func FuzzParseBudget(f *testing.F) {
	for _, c := range append(parseBudgetCases, parseBudgetOverflowCases...) {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseBudget(s)
		if err != nil {
			return
		}
		if n < 0 {
			t.Fatalf("ParseBudget(%q) = %d, want >= 0", s, n)
		}
		if back, err := ParseBudget(strconv.FormatInt(n, 10)); err != nil || back != n {
			t.Fatalf("ParseBudget(%q) = %d, which reparses to %d, %v", s, n, back, err)
		}
	})
}
