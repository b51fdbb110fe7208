package fault

import (
	"strings"
	"testing"
	"time"
)

type testRule struct {
	name string
	odd  bool // watches only odd-numbered operations
	rank int
	Window
	delay time.Duration
}

func (r *testRule) window() Window { return r.Window }

// fires runs ops operations past a fresh injector and records, per
// operation, the name of the rule that fired ("-" for none).
func fires(seed int64, rank, ops int, rules []testRule) string {
	in := NewInjector(seed, rank, true, rules, (*testRule).window)
	return run(in, 0, ops)
}

func run(in *Injector[testRule], from, to int) string {
	var sb strings.Builder
	for op := from; op < to; op++ {
		r := in.Fire(func(r *testRule) bool { return !r.odd || op%2 == 1 })
		if r == nil {
			sb.WriteByte('-')
		} else {
			sb.WriteString(r.name)
		}
	}
	return sb.String()
}

// TestInjectorWindows is the one table over the firing rule both
// injectors share: the after/count/every windows, what happens when two
// rules watch the same operation, and per-rule (not per-operation)
// counting.
func TestInjectorWindows(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rules []testRule
		want  string
	}{
		{"persistent", []testRule{{name: "a"}}, "aaaaaaaa"},
		{"after+count", []testRule{{name: "a", Window: Window{After: 1, Count: 2}}}, "-aa-----"},
		{"every", []testRule{{name: "a", Window: Window{Every: 3}}}, "a--a--a-"},
		{"after+every", []testRule{{name: "a", Window: Window{After: 2, Every: 3}}}, "--a--a--"},
		{"every beats count", []testRule{{name: "a", Window: Window{Every: 4, Count: 1}}}, "a---a---"},
		// Both rules watch every operation: b's counter advances on
		// operation 2 although a wins it, so b stays on even operations.
		{"first fired wins, both count", []testRule{
			{name: "a", Window: Window{After: 2, Count: 1}},
			{name: "b", Window: Window{Every: 2}},
		}, "b-a-b-b-"},
		// A rule counts the operations it watches, not all operations:
		// b sees only operations 1, 3, 5, 7 and fires on its 2nd and 3rd.
		{"per-rule counters", []testRule{
			{name: "a", Window: Window{Count: 1}},
			{name: "b", odd: true, Window: Window{After: 1, Count: 2}},
		}, "a--b-b--"},
	} {
		if got := fires(0, 0, 8, tc.rules); got != tc.want {
			t.Errorf("%s: fired %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestInjectorProbReplay: a prob rule's draws depend on (seed, rank) and
// on nothing else — not on an earlier rule that already won the
// operation, which is what keeps a seeded plan replayable when a rule is
// added in front of it.
func TestInjectorProbReplay(t *testing.T) {
	prob := testRule{name: "p", Window: Window{Prob: 0.5}}
	alone := fires(7, 0, 40, []testRule{prob})
	if alone != fires(7, 0, 40, []testRule{prob}) {
		t.Fatal("same seed and rank, different schedules")
	}
	if n := strings.Count(alone, "p"); n == 0 || n == 40 {
		t.Fatalf("prob=0.5 fired %d/40 times", n)
	}
	if alone == fires(7, 1, 40, []testRule{prob}) {
		t.Error("ranks 0 and 1 drew the same stream from one seed")
	}
	if alone == fires(8, 0, 40, []testRule{prob}) {
		t.Error("seeds 7 and 8 drew the same stream on one rank")
	}
	// An erroring rule in front wins the first 10 operations; p must
	// still have drawn on each of them, so its later hits do not move.
	behind := fires(7, 0, 40, []testRule{{name: "a", Window: Window{Count: 10}}, prob})
	if want := strings.Repeat("a", 10) + alone[10:]; behind != want {
		t.Errorf("prob rule behind another:\n got %s\nwant %s", behind, want)
	}
	// After delays the first draw, not the stream.
	late := fires(7, 0, 40, []testRule{{name: "p", Window: Window{After: 5, Prob: 0.5}}})
	if want := "-----" + alone[:35]; late != want {
		t.Errorf("prob rule with after=5:\n got %s\nwant %s", late, want)
	}
}

// TestInjectorDisarmed: a disarmed injector neither counts nor draws, so
// the schedule resumes exactly where it stopped.
func TestInjectorDisarmed(t *testing.T) {
	rules := []testRule{
		{name: "a", Window: Window{After: 1, Count: 2}},
		{name: "p", Window: Window{After: 3, Prob: 0.5}},
	}
	want := fires(3, 2, 24, rules)
	in := NewInjector(3, 2, false, rules, (*testRule).window)
	if got := run(in, 0, 6); got != "------" {
		t.Fatalf("disarmed injector fired: %s", got)
	}
	in.SetArmed(true)
	got := run(in, 0, 12)
	in.SetArmed(false)
	if idle := run(in, 0, 5); idle != "-----" {
		t.Fatalf("re-disarmed injector fired: %s", idle)
	}
	in.SetArmed(true)
	if got += run(in, 12, 24); got != want {
		t.Errorf("schedule across disarmed gaps:\n got %s\nwant %s", got, want)
	}
}

// TestParse: the common grammar, the per-domain hooks (kind table with
// alias and required delay, extra keys), and every rejected value reported
// with its key=value under the domain's prefix, so a typo'd plan is
// findable.
func TestParse(t *testing.T) {
	kinds := Kinds{{Name: "boom"}, {Name: "wait", Alias: "hang", NeedDelay: true}}
	var got []testRule
	parse := func(spec string) (int64, error) {
		got = nil
		return Parse(spec, "test", kinds, func(kind int) Fields {
			got = append(got, testRule{name: kinds.Name(kind), rank: -1})
			r := &got[len(got)-1]
			return Fields{Rank: &r.rank, After: &r.After, Count: &r.Count, Every: &r.Every, Prob: &r.Prob, Delay: &r.delay,
				Set: func(k, v string) (bool, error) {
					if k != "odd" {
						return false, nil
					}
					n, err := Int(v, 0)
					r.odd = n != 0
					return true, err
				}}
		})
	}
	seed, err := parse(" boom,after=2,count=3,odd=1 ; seed=-9;hang,delay=1ms,prob=0.25,rank=4;")
	want := []testRule{
		{name: "boom", odd: true, rank: -1, Window: Window{After: 2, Count: 3}},
		{name: "wait", rank: 4, Window: Window{Prob: 0.25}, delay: time.Millisecond},
	}
	if err != nil || seed != -9 || len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("seed %d, rules %+v, err %v; want -9, %+v", seed, got, err, want)
	}
	for spec, frag := range map[string]string{
		"boom,prob=-0.2":  `"prob=-0.2"`,
		"boom,prob=NaN":   `"prob=NaN"`,
		"boom,count=-1":   `"count=-1"`,
		"boom,every=-3":   `"every=-3"`,
		"boom,after=-1":   `"after=-1"`,
		"boom,rank=-2":    `"rank=-2"`,
		"boom,delay=-1ms": `"delay=-1ms"`,
		"boom,odd=-1":     `"odd=-1"`,
		"boom,even=1":     `"even=1"`,
		"bang":            "want boom|wait",
		"wait,count=1":    "wait rule needs delay",
		"seed=1":          "no rules",
	} {
		_, err := parse(spec)
		if err == nil || !strings.HasPrefix(err.Error(), "test: fault plan: ") || !strings.Contains(err.Error(), frag) {
			t.Errorf("Parse(%q) = %v, want a \"test: fault plan:\" error naming %s", spec, err, frag)
		}
	}
}
