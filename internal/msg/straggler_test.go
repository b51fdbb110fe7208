package msg

import (
	"testing"
	"time"

	"repro/internal/fault"
)

// countMatches rebuilds rank's injector in ft from the same plan and
// returns the number of times one of its rules has matched an operation
// since: the injector reads a rule's window exactly once per armed match,
// whether or not the rule then fires.  A rule that did not match did not
// fire — an exact check where a wall-clock bound is not.
func countMatches(ft *FaultTransport, rank int, plan *FaultPlan) *int {
	n := new(int)
	ft.eps[rank].inj = fault.NewInjector(plan.Seed, rank, !plan.StartDisarmed, plan.Rules, func(r *FaultRule) fault.Window {
		*n++
		return r.window()
	})
	return n
}

// TestSlowFaultParse: the slow kind parses with its factor, defaults to
// a persistent schedule, and rejects a missing base delay.
func TestSlowFaultParse(t *testing.T) {
	plan, err := ParseFaultPlan("slow,rank=2,delay=100us,factor=8")
	if err != nil {
		t.Fatal(err)
	}
	r := plan.Rules[0]
	if r.Kind != FaultSlow || r.Rank != 2 || r.Delay != 100*time.Microsecond || r.Factor != 8 {
		t.Fatalf("rule = %+v", r)
	}
	if r.Count != 0 || r.Every != 0 || r.Prob != 0 {
		t.Fatalf("slow rule should default to a persistent schedule: %+v", r)
	}
	if r.slowDur() != 800*time.Microsecond {
		t.Fatalf("slowDur = %v, want 800µs", r.slowDur())
	}
	if _, err := ParseFaultPlan("slow,rank=2,factor=8"); err == nil {
		t.Fatal("slow without delay= should fail to parse")
	}
}

// TestSlowFaultStallsMatchingRank: only the slowed rank's operations pay
// the Delay×Factor latency; a peer's traffic is unaffected, and the
// slowed operations still succeed.
func TestSlowFaultStallsMatchingRank(t *testing.T) {
	const base = 5 * time.Millisecond
	plan := &FaultPlan{
		Rules: []FaultRule{{Kind: FaultSlow, Rank: 1, Peer: -1, Delay: base, Factor: 4}},
	}
	ft := NewFaultTransport(NewChanTransport(2), plan)
	defer ft.Close()
	healthy := countMatches(ft, 0, plan)

	// Rank 0 (healthy): the slow rule does not match its send.
	if err := ft.Endpoint(0).Send(1, 7, EncodeInts([]int{1})); err != nil {
		t.Fatal(err)
	}
	if *healthy != 0 {
		t.Fatalf("the slow rule matched %d of the healthy rank's operations (slowdown leaked to the wrong rank)", *healthy)
	}

	// Rank 1 (slow): both its receive and its send stall ≥ Delay×Factor.
	t0 := time.Now()
	p, err := ft.Endpoint(1).RecvTimeout(0, 7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if DecodeInts(p.Data)[0] != 1 {
		t.Fatalf("slowed receive corrupted the payload: %v", p.Data)
	}
	if el := time.Since(t0); el < 4*base {
		t.Fatalf("slowed recv took %v, want >= %v", el, 4*base)
	}
	t0 = time.Now()
	if err := ft.Endpoint(1).Send(0, 8, nil); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(t0); el < 4*base {
		t.Fatalf("slowed send took %v, want >= %v", el, 4*base)
	}
}

// TestSlowFaultArmDisarm: a disarmed straggler runs at full speed; Arm
// switches the latency on, like every other fault kind.
func TestSlowFaultArmDisarm(t *testing.T) {
	const base = 10 * time.Millisecond
	plan := &FaultPlan{
		StartDisarmed: true,
		Rules:         []FaultRule{{Kind: FaultSlow, Rank: 0, Peer: -1, Delay: base, Factor: 2}},
	}
	ft := NewFaultTransport(NewChanTransport(2), plan)
	defer ft.Close()
	matched := countMatches(ft, 0, plan)
	ep := ft.Endpoint(0)

	if err := ep.Send(1, 7, nil); err != nil {
		t.Fatal(err)
	}
	if *matched != 0 {
		t.Fatalf("disarmed slow rule still matched the send (%d matches)", *matched)
	}

	ft.Arm(0)
	t0 := time.Now()
	if err := ep.Send(1, 7, nil); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(t0); el < 2*base {
		t.Fatalf("armed slow send took %v, want >= %v", el, 2*base)
	}
	if *matched != 1 {
		t.Fatalf("armed slow rule matched %d sends, want 1", *matched)
	}
	ft.Disarm(0)
	if err := ep.Send(1, 7, nil); err != nil {
		t.Fatal(err)
	}
	if *matched != 1 {
		t.Fatalf("disarmed slow rule still matched the send (%d matches, want 1)", *matched)
	}
}

// TestBackoffDelayEscalates: the sleep before each retry is 1 ms doubled
// per attempt, capped at 16 ms, whatever the policy.
func TestBackoffDelayEscalates(t *testing.T) {
	for _, pol := range []RetryPolicy{{}, {Timeout: time.Second, Retries: 9}} {
		for attempt, want := range []time.Duration{1, 2, 4, 8, 16, 16, 16} {
			if got := pol.Backoff(attempt); got != want*time.Millisecond {
				t.Fatalf("%+v: Backoff(%d) = %v, want %v", pol, attempt, got, want*time.Millisecond)
			}
		}
	}
}
