// Package fault is the half of fault injection that does not care what
// is being broken: the firing schedule (which of an endpoint's matching
// operations a rule fires on, replayable from a seed) and the plan
// grammar.  internal/msg puts it under wires and internal/pario under
// files; each keeps only its own kinds, match predicates and effects.
package fault

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Window selects which of a rule's matching operations fire, counted per
// endpoint from 0: none of the first After; then, in order of precedence,
// each with probability Prob (> 0), every Every-th (> 0), all of them
// (Count <= 0, a persistent fault), or the next Count.
type Window struct {
	After, Count, Every int
	Prob                float64
}

// Injector is one endpoint's schedule state over the plan's rules: the
// armed flag, the Seed+rank RNG behind prob rules, and one match counter
// per rule.
type Injector[R any] struct {
	mu    sync.Mutex
	rules []R
	win   func(*R) Window
	rng   *rand.Rand
	armed bool
	seen  []int
}

// NewInjector builds rank's injector; win reads a rule's firing window.
func NewInjector[R any](seed int64, rank int, armed bool, rules []R, win func(*R) Window) *Injector[R] {
	return &Injector[R]{rules: rules, win: win, rng: rand.New(rand.NewSource(seed + int64(rank))),
		armed: armed, seen: make([]int, len(rules))}
}

// SetArmed switches injection on or off.  A disarmed injector neither
// counts nor draws, so arming at a phase boundary keeps the counts of the
// phase under test deterministic.
func (in *Injector[R]) SetArmed(v bool) {
	in.mu.Lock()
	in.armed = v
	in.mu.Unlock()
}

// Fire runs one operation past the schedule and returns the first rule
// (in plan order) that fires on it, or nil; match says whether a rule
// watches this operation.  Every matching rule's counter advances, and
// every matching prob rule past its After draws exactly once, whether or
// not an earlier rule already fired: a rule's schedule never depends on
// its neighbours, which is what lets a seeded plan replay.
func (in *Injector[R]) Fire(match func(*R) bool) *R {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.armed {
		return nil
	}
	var hit *R
	for i := range in.rules {
		r := &in.rules[i]
		if !match(r) {
			continue
		}
		w := in.win(r)
		n := in.seen[i] - w.After
		in.seen[i]++
		if n < 0 {
			continue
		}
		var fired bool
		switch {
		case w.Prob > 0:
			fired = in.rng.Float64() < w.Prob
		case w.Every > 0:
			fired = n%w.Every == 0
		default:
			fired = w.Count <= 0 || n < w.Count
		}
		if fired && hit == nil {
			hit = r
		}
	}
	return hit
}

// Kind is one row of a domain's kind table.  A rule's kind is its row
// index; String(), the parser, the "want a|b|c" error and the CLI help
// all read the same table, so adding a kind is a one-place change.
type Kind struct {
	Name      string
	Alias     string // a second accepted spelling ("" = none)
	NeedDelay bool   // meaningless without delay=<duration>
}

// Kinds is a domain's kind table.
type Kinds []Kind

// Name returns kind k's name.
func (ks Kinds) Name(k int) string {
	if k < 0 || k >= len(ks) {
		return fmt.Sprintf("FaultKind(%d)", k)
	}
	return ks[k].Name
}

// List returns the kind names as "a|b|c".
func (ks Kinds) List() string {
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.Name
	}
	return strings.Join(names, "|")
}

// Int parses v as an integer >= min.
func Int(v string, min int) (int, error) {
	n, err := strconv.Atoi(v)
	if err == nil && n < min {
		err = fmt.Errorf("below %d", min)
	}
	return n, err
}

// Float parses v as a number in [min, max]; NaN is in no range.
func Float(v string, min, max float64) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err == nil && !(f >= min && f <= max) {
		err = fmt.Errorf("outside [%g, %g]", min, max)
	}
	return f, err
}

// Fields says where the keys of the rule being parsed go.  The domain's
// rule keeps the common ones as flat fields, so the parser writes them
// through pointers, as flag.IntVar does; Set stores any other key and
// reports ok=false for one the domain does not know either.
type Fields struct {
	Rank, After, Count, Every *int
	Prob                      *float64
	Delay                     *time.Duration
	Set                       func(key, value string) (ok bool, err error)
}

// Parse parses a plan for the named domain ("<domain>: fault plan: …"
// prefixes every error): semicolon-separated segments, each either
// "seed=N" or a kind followed by comma-separated key=value options.  The
// common keys are rank (>= -1), after, count, every (>= 0), prob (in
// [0,1]) and delay (a non-negative Go duration); out-of-range values are
// rejected, because a negative count or prob would otherwise read as
// "persistent".  add starts a rule of the given kind and returns where
// its keys go.
func Parse(spec, domain string, kinds Kinds, add func(kind int) Fields) (seed int64, err error) {
	errorf := func(format string, args ...any) (int64, error) {
		return 0, fmt.Errorf(domain+": fault plan: "+format, args...)
	}
	n := 0
	for _, seg := range strings.Split(spec, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		if v, ok := strings.CutPrefix(seg, "seed="); ok {
			if seed, err = strconv.ParseInt(v, 10, 64); err != nil {
				return errorf("bad seed %q", v)
			}
			continue
		}
		fields := strings.Split(seg, ",")
		kind := slices.IndexFunc(kinds, func(k Kind) bool {
			return fields[0] == k.Name || (k.Alias != "" && fields[0] == k.Alias)
		})
		if kind < 0 {
			return errorf("unknown kind %q (want %s)", fields[0], kinds.List())
		}
		r := add(kind)
		for _, f := range fields[1:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return errorf("bad option %q (want key=value)", f)
			}
			var err error
			switch k {
			case "rank":
				*r.Rank, err = Int(v, -1)
			case "after":
				*r.After, err = Int(v, 0)
			case "count":
				*r.Count, err = Int(v, 0)
			case "every":
				*r.Every, err = Int(v, 0)
			case "prob":
				*r.Prob, err = Float(v, 0, 1)
			case "delay":
				if *r.Delay, err = time.ParseDuration(v); err == nil && *r.Delay < 0 {
					err = fmt.Errorf("negative")
				}
			default:
				if ok, err = r.Set(k, v); !ok {
					err = fmt.Errorf("unknown option %q", k)
				}
			}
			if err != nil {
				return errorf("option %q: %v", f, err)
			}
		}
		if kinds[kind].NeedDelay && *r.Delay <= 0 {
			return errorf("%s rule needs delay=<duration>", kinds[kind].Name)
		}
		n++
	}
	if n == 0 {
		return errorf("no rules in %q", spec)
	}
	return seed, nil
}
