package msg

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

const goodFaultPlan = "senderr,rank=1,after=3,count=2;drop,peer=2,count=1;delay,delay=20ms,every=5;seed=7"

var badFaultPlans = []string{
	"",
	"frobnicate,count=1",
	"senderr,count",
	"senderr,bogus=1",
	"delay,every=2", // delay kind without delay=<duration>
	"seed=xyzzy",
	// out-of-range values used to turn a scheduled fault into a
	// permanent one (or rank=-2 into "every rank") silently
	"senderr,prob=-0.2",
	"senderr,prob=1.5",
	"senderr,prob=NaN",
	"senderr,count=-1",
	"senderr,after=-1",
	"senderr,every=-3",
	"senderr,rank=-2",
	"senderr,peer=-2",
	"slow,delay=1ms,factor=-8",
	"delay,delay=-20ms",
}

func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan(goodFaultPlan)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 7 || len(plan.Rules) != 3 {
		t.Fatalf("plan = %+v", plan)
	}
	r := plan.Rules[0]
	if r.Kind != FaultSendErr || r.Rank != 1 || r.Peer != -1 || r.After != 3 || r.Count != 2 {
		t.Errorf("rule 0 = %+v", r)
	}
	if plan.Rules[1].Kind != FaultDrop || plan.Rules[1].Peer != 2 || plan.Rules[1].Rank != -1 {
		t.Errorf("rule 1 = %+v", plan.Rules[1])
	}
	if plan.Rules[2].Kind != FaultRecvDelay || plan.Rules[2].Delay != 20*time.Millisecond || plan.Rules[2].Every != 5 {
		t.Errorf("rule 2 = %+v", plan.Rules[2])
	}

	for _, bad := range badFaultPlans {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) should fail", bad)
		}
	}
}

func TestFaultSendErrHealsOnRetry(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2), &FaultPlan{
		Rules: []FaultRule{{Kind: FaultSendErr, Rank: 0, Peer: -1, Count: 1}},
	})
	defer ft.Close()
	ep := ft.Endpoint(0)
	err := ep.Send(1, 7, EncodeInts([]int{42}))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("first send err = %v, want ErrInjected", err)
	}
	// the failed send delivered nothing
	if _, err := ft.Endpoint(1).RecvTimeout(0, 7, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv after failed send = %v, want ErrTimeout", err)
	}
	// the retry goes through
	if err := ep.Send(1, 7, EncodeInts([]int{42})); err != nil {
		t.Fatal(err)
	}
	p, err := ft.Endpoint(1).Recv(0, 7)
	if err != nil || DecodeInts(p.Data)[0] != 42 {
		t.Fatalf("retried send: packet %+v err %v", p, err)
	}
}

func TestFaultDropLosesFrameSilently(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2), &FaultPlan{
		Rules: []FaultRule{{Kind: FaultDrop, Rank: 0, Peer: -1, Count: 1}},
	})
	defer ft.Close()
	if err := ft.Endpoint(0).Send(1, 3, EncodeInts([]int{1})); err != nil {
		t.Fatalf("dropped send must look successful, got %v", err)
	}
	if _, err := ft.Endpoint(1).RecvTimeout(0, 3, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv of dropped frame = %v, want ErrTimeout", err)
	}
	// the drop budget is spent: the next frame arrives
	if err := ft.Endpoint(0).Send(1, 3, EncodeInts([]int{2})); err != nil {
		t.Fatal(err)
	}
	p, err := ft.Endpoint(1).Recv(0, 3)
	if err != nil || DecodeInts(p.Data)[0] != 2 {
		t.Fatalf("second send: packet %+v err %v", p, err)
	}
}

func TestFaultRecvDelayHealsViaEscalatingDeadline(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2), &FaultPlan{
		Rules: []FaultRule{{Kind: FaultRecvDelay, Rank: 0, Peer: -1, Count: 1, Delay: 30 * time.Millisecond}},
	})
	defer ft.Close()
	if err := ft.Endpoint(0).Send(1, 5, EncodeInts([]int{9})); err != nil {
		t.Fatal(err)
	}
	// a single short deadline misses the delayed frame...
	if _, err := ft.Endpoint(1).RecvTimeout(0, 5, 5*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("short recv = %v, want ErrTimeout", err)
	}
	// ...but RecvRetry's escalating deadline eventually sees it
	cfg := RetryPolicy{Timeout: 5 * time.Millisecond, Retries: 6}
	p, err := RecvRetry(ft.Endpoint(1), cfg, nil, "probe", 0, 5)
	if err != nil || DecodeInts(p.Data)[0] != 9 {
		t.Fatalf("RecvRetry: packet %+v err %v", p, err)
	}
}

func TestFaultRecvErrLeavesMailboxIntact(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2), &FaultPlan{
		Rules: []FaultRule{{Kind: FaultRecvErr, Rank: 1, Peer: -1, Count: 1}},
	})
	defer ft.Close()
	if err := ft.Endpoint(0).Send(1, 4, EncodeInts([]int{11})); err != nil {
		t.Fatal(err)
	}
	if _, err := ft.Endpoint(1).Recv(0, 4); !errors.Is(err, ErrInjected) {
		t.Fatalf("first recv = %v, want ErrInjected", err)
	}
	// the message was not consumed; the retry finds it
	p, err := ft.Endpoint(1).Recv(0, 4)
	if err != nil || DecodeInts(p.Data)[0] != 11 {
		t.Fatalf("second recv: packet %+v err %v", p, err)
	}
}

func TestSendRetryTerminalErrorNamesOpAndRank(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2), &FaultPlan{
		Rules: []FaultRule{{Kind: FaultSendErr, Rank: 0, Peer: -1}}, // Count 0: persistent
	})
	defer ft.Close()
	err := SendRetry(ft.Endpoint(0), RetryPolicy{Retries: 2}, nil, "ghost-exchange", 1, 7, nil)
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want wrapped ErrInjected", err)
	}
	for _, frag := range []string{"ghost-exchange", "rank 0", "send to 1"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q missing %q", err, frag)
		}
	}
}

func TestArmDisarmScopesInjection(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2), &FaultPlan{
		StartDisarmed: true,
		Rules:         []FaultRule{{Kind: FaultSendErr, Rank: 0, Peer: -1}},
	})
	defer ft.Close()
	ep := ft.Endpoint(0)
	if err := ep.Send(1, 1, nil); err != nil {
		t.Fatalf("disarmed send = %v", err)
	}
	ft.Arm(0)
	if err := ep.Send(1, 1, nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed send = %v, want ErrInjected", err)
	}
	ft.Disarm(0)
	if err := ep.Send(1, 1, nil); err != nil {
		t.Fatalf("re-disarmed send = %v", err)
	}
}

func TestProbRulesReplayDeterministically(t *testing.T) {
	fire := func() []bool {
		ft := NewFaultTransport(NewChanTransport(2), &FaultPlan{
			Seed:  99,
			Rules: []FaultRule{{Kind: FaultSendErr, Rank: 0, Peer: -1, Prob: 0.5}},
		})
		defer ft.Close()
		out := make([]bool, 20)
		for i := range out {
			out[i] = ft.Endpoint(0).Send(1, 1, nil) != nil
		}
		return out
	}
	a, b := fire(), b2s(fire())
	if b2s(a) != b {
		t.Fatalf("same seed, different schedules: %v vs %v", b2s(a), b)
	}
}

func b2s(bs []bool) string {
	var sb strings.Builder
	for _, b := range bs {
		if b {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// TestCollectiveTimeoutUnderDelay injects a long delivery delay on rank 0's
// sends and checks that rank 1's barrier surfaces ErrTimeout wrapped with
// the collective's name and rank once the bounded retries are exhausted.
func TestCollectiveTimeoutUnderDelay(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(2), &FaultPlan{
		Rules: []FaultRule{{Kind: FaultRecvDelay, Rank: 0, Peer: -1, Delay: time.Second}},
	})
	defer ft.Close()
	cfg := RetryPolicy{Timeout: 5 * time.Millisecond, Retries: 1}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := NewComm(ft.Endpoint(r))
			c.SetRetry(cfg)
			errs[r] = c.Barrier()
		}(r)
	}
	wg.Wait()
	err := errs[1] // rank 1 waits on rank 0's delayed frame
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("rank 1 barrier = %v, want wrapped ErrTimeout", err)
	}
	for _, frag := range []string{"barrier", "rank 1", "recv from 0"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q missing %q", err, frag)
		}
	}
}

// TestCollectiveHealsAfterTransientSendErr checks the whole retry loop
// end-to-end on a collective: a count-limited injected send failure inside
// a bcast is retried and the payload still arrives intact everywhere.
func TestCollectiveHealsAfterTransientSendErr(t *testing.T) {
	ft := NewFaultTransport(NewChanTransport(4), &FaultPlan{
		Rules: []FaultRule{{Kind: FaultSendErr, Rank: 0, Peer: -1, Count: 2}},
	})
	defer ft.Close()
	cfg := RetryPolicy{Timeout: 100 * time.Millisecond, Retries: 4}
	runCommsOn(t, ft, func(c *Comm) error {
		c.SetRetry(cfg)
		var buf []byte
		if c.Rank() == 0 {
			buf = EncodeInts([]int{31337})
		}
		out, err := c.Bcast(0, buf)
		if err != nil {
			return err
		}
		if got := DecodeInts(out)[0]; got != 31337 {
			t.Errorf("rank %d: bcast got %d", c.Rank(), got)
		}
		return nil
	})
}

// FuzzParseFaultPlan: the parser never panics, and whatever it accepts
// is a schedule that means what it says — no value out of range that the
// firing rule would silently read as "persistent" or "every rank".
func FuzzParseFaultPlan(f *testing.F) {
	f.Add(goodFaultPlan)
	f.Add("slow,rank=2,delay=100us,factor=8;bitflip,win=1,prob=0.5")
	for _, bad := range badFaultPlans {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseFaultPlan(spec)
		if err != nil {
			if plan != nil || !strings.HasPrefix(err.Error(), "msg: fault plan: ") {
				t.Fatalf("ParseFaultPlan(%q) = %v, %v", spec, plan, err)
			}
			return
		}
		if len(plan.Rules) == 0 {
			t.Fatalf("ParseFaultPlan(%q) accepted a plan with no rules", spec)
		}
		for _, r := range plan.Rules {
			if r.Kind < 0 || int(r.Kind) >= len(faultKinds) ||
				r.Rank < -1 || r.Peer < -1 || r.After < 0 || r.Count < 0 || r.Every < 0 ||
				!(r.Prob >= 0 && r.Prob <= 1) || r.Delay < 0 || !(r.Factor >= 0) ||
				(faultKinds[r.Kind].NeedDelay && r.Delay <= 0) {
				t.Fatalf("ParseFaultPlan(%q) accepted out-of-range rule %+v", spec, r)
			}
		}
	})
}

// TestWrappersTakeOffersOffSharedMemory: the chan transport shares one
// address space, bare or under a View, but under the fault or integrity
// layer it does not say so, so a Window's offers travel framed and those
// layers see every DISTRIBUTE payload.
func TestWrappersTakeOffersOffSharedMemory(t *testing.T) {
	plan, err := ParseFaultPlan("drop,rank=0,count=1")
	if err != nil {
		t.Fatal(err)
	}
	base := NewChanTransport(2)
	defer base.Close()
	for name, c := range map[string]struct {
		ep   Endpoint
		want bool
	}{
		"chan":             {base.Endpoint(0), true},
		"view":             {NewView(base.Endpoint(0), 1, []int{0, 1}, nil), true},
		"fault":            {NewFaultTransport(base, plan).Endpoint(0), false},
		"integrity":        {NewIntegrityTransport(base).Endpoint(0), false},
		"integrity(fault)": {NewIntegrityTransport(NewFaultTransport(base, plan)).Endpoint(0), false},
		"view(fault)":      {NewView(NewFaultTransport(base, plan).Endpoint(0), 1, []int{0, 1}, nil), false},
	} {
		if got := sharedMemory(c.ep); got != c.want {
			t.Errorf("%s: sharedMemory = %v, want %v", name, got, c.want)
		}
	}
}
