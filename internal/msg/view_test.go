package msg

import (
	"errors"
	"testing"
	"time"
)

func TestFoldTag(t *testing.T) {
	for _, tc := range []struct {
		epoch, tag, want int
	}{
		{0, 42, 42}, // epoch 0 is the identity
		{0, TagCollBase, TagCollBase},
		{1, 42, 42 | 1<<40},
		{3, TagProbe, TagProbe | 3<<40},
		{2, AnyTag, AnyTag}, // wildcards pass through
	} {
		if got := FoldTag(tc.epoch, tc.tag); got != tc.want {
			t.Errorf("FoldTag(%d, %#x) = %#x, want %#x", tc.epoch, tc.tag, got, tc.want)
		}
		if tc.tag >= 0 {
			if back := UnfoldTag(FoldTag(tc.epoch, tc.tag)); back != tc.tag {
				t.Errorf("UnfoldTag(FoldTag(%d, %#x)) = %#x", tc.epoch, tc.tag, back)
			}
		}
	}
	// Distinct epochs of the same tag never collide on the wire.
	if FoldTag(1, 7) == FoldTag(2, 7) {
		t.Error("epoch 1 and 2 folds collide")
	}
}

// TestFoldTagBoundary: the fold has exactly MaxEpoch epochs of headroom.
// The last representable epoch folds and unfolds cleanly and stays
// non-negative (a negative folded tag would alias the AnyTag wildcard);
// one past it must fail loudly — CheckEpoch as an error for transition
// time, FoldTag as a panic for the can't-happen path.
func TestFoldTagBoundary(t *testing.T) {
	if got := FoldTag(MaxEpoch, TagCollBase); got < 0 {
		t.Fatalf("FoldTag(MaxEpoch, TagCollBase) = %#x, negative (wildcard alias)", got)
	} else if UnfoldTag(got) != TagCollBase {
		t.Fatalf("UnfoldTag(FoldTag(MaxEpoch, TagCollBase)) = %#x, want %#x", UnfoldTag(got), TagCollBase)
	}
	if err := CheckEpoch(MaxEpoch); err != nil {
		t.Errorf("CheckEpoch(MaxEpoch) = %v, want nil", err)
	}
	if err := CheckEpoch(MaxEpoch + 1); err == nil {
		t.Error("CheckEpoch(MaxEpoch+1) accepted an unfoldable epoch")
	}
	if err := CheckEpoch(-1); err == nil {
		t.Error("CheckEpoch(-1) accepted a negative epoch")
	}
	defer func() {
		if recover() == nil {
			t.Error("FoldTag(MaxEpoch+1, tag) did not panic")
		}
	}()
	FoldTag(MaxEpoch+1, TagCollBase)
}

// TestViewRenumbering: a 4-rank transport viewed as the 3 survivors
// [0 1 3] renumbers ranks, translates delivered From fields back to view
// coordinates, and isolates epochs by tag fold.
func TestViewRenumbering(t *testing.T) {
	tr := NewChanTransport(4)
	defer tr.Close()
	phys := []int{0, 1, 3}
	v0 := NewView(tr.Endpoint(0), 1, phys, nil)
	v2 := NewView(tr.Endpoint(3), 1, phys, nil) // physical 3 = view 2

	if v2.Rank() != 2 || v2.NP() != 3 || v2.Phys(2) != 3 {
		t.Fatalf("view numbering: rank %d np %d phys(2)=%d", v2.Rank(), v2.NP(), v2.Phys(2))
	}
	if err := v0.Send(2, 9001, EncodeInts([]int{11})); err != nil {
		t.Fatal(err)
	}
	p, err := v2.Recv(0, 9001)
	if err != nil {
		t.Fatal(err)
	}
	if p.From != 0 || p.Tag != 9001 || DecodeInts(p.Data)[0] != 11 {
		t.Fatalf("packet %+v: want From=0 Tag=9001 payload 11", p)
	}

	// A straggler sent on epoch 0 (unfolded tag) never matches an epoch-1
	// receive for the same user tag.
	if err := tr.Endpoint(0).Send(3, 9001, EncodeInts([]int{99})); err != nil {
		t.Fatal(err)
	}
	if _, err := v2.RecvTimeout(0, 9001, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("revoked-epoch straggler matched an epoch-1 receive: %v", err)
	}

	// Out-of-range view ranks are rejected, not misrouted.
	if err := v0.Send(3, 9001, nil); err == nil {
		t.Fatal("send to rank outside view should fail")
	}
}

// TestViewAnySource: AnySource receives work through a view and report
// the sender in view coordinates.
func TestViewAnySource(t *testing.T) {
	tr := NewChanTransport(4)
	defer tr.Close()
	phys := []int{0, 1, 3}
	v1 := NewView(tr.Endpoint(1), 2, phys, nil)
	v2 := NewView(tr.Endpoint(3), 2, phys, nil)
	if err := v2.Send(1, 9002, EncodeInts([]int{5})); err != nil {
		t.Fatal(err)
	}
	p, err := v1.Recv(AnySource, 9002)
	if err != nil {
		t.Fatal(err)
	}
	if p.From != 2 {
		t.Fatalf("From = %d (physical?), want view rank 2", p.From)
	}
}

// TestViewCheckLiveAbortsRetry: a view's liveness check is consulted
// before every retry attempt, so a revoked epoch aborts a blocked
// receive with the checker's typed error instead of grinding through
// timeouts.
func TestViewCheckLiveAbortsRetry(t *testing.T) {
	tr := NewChanTransport(2)
	defer tr.Close()
	revoked := errors.New("epoch revoked (test)")
	var dead bool
	v := NewView(tr.Endpoint(0), 1, []int{0, 1}, func() error {
		if dead {
			return revoked
		}
		return nil
	})
	cfg := RetryPolicy{Timeout: 20 * time.Millisecond, Retries: 5}
	dead = true
	start := time.Now()
	_, err := RecvRetry(v, cfg, nil, "test", 1, 9001)
	if !errors.Is(err, revoked) {
		t.Fatalf("err = %v, want the checker's error", err)
	}
	if el := time.Since(start); el > 15*time.Millisecond {
		t.Fatalf("abort took %v; checker should fire before the first timeout", el)
	}
}

// TestViewSuspectOnMissedDeadline: a receive attempt that misses its
// deadline on a named peer hands the peer's physical rank to the view's
// suspicion hook.  A cleared suspicion lets the retries run on; a
// confirmed one ends the receive with the hook's error.
func TestViewSuspectOnMissedDeadline(t *testing.T) {
	tr := NewChanTransport(3)
	defer tr.Close()
	var suspected []int
	confirm := errors.New("peer dead (test)")
	var verdict error
	v := NewView(tr.Endpoint(0), 1, []int{0, 2}, nil)
	v.SetSuspect(func(phys int) error {
		suspected = append(suspected, phys)
		return verdict
	})
	cfg := RetryPolicy{Timeout: 5 * time.Millisecond, Retries: 2}
	if _, err := RecvRetry(v, cfg, nil, "test", 1, 9001); !errors.Is(err, ErrTimeout) {
		t.Fatalf("cleared suspicions: err = %v, want the receive's timeout", err)
	}
	if len(suspected) != 3 || suspected[0] != 2 {
		t.Fatalf("suspected %v, want physical rank 2 once per missed deadline", suspected)
	}
	suspected, verdict = nil, confirm
	if _, err := RecvRetry(v, cfg, nil, "test", 1, 9001); !errors.Is(err, confirm) {
		t.Fatalf("confirmed suspicion: err = %v, want the hook's error", err)
	}
	if len(suspected) != 1 {
		t.Fatalf("suspected %v after a confirmed death, want one probe", suspected)
	}
	if _, err := RecvRetry(v, RetryPolicy{Timeout: 5 * time.Millisecond}, nil, "test", AnySource, 9001); !errors.Is(err, ErrTimeout) || len(suspected) != 1 {
		t.Fatalf("wildcard receive: err = %v, suspected %v; a wildcard names nobody to suspect", err, suspected)
	}
}

// TestViewExcludingSelfPanics: constructing a view that excludes its own
// endpoint is a programming error, caught loudly.
func TestViewExcludingSelfPanics(t *testing.T) {
	tr := NewChanTransport(3)
	defer tr.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("NewView excluding self should panic")
		}
	}()
	NewView(tr.Endpoint(2), 1, []int{0, 1}, nil)
}
