package msg

import (
	"testing"
	"time"
)

// TestEscalateCap: the per-attempt exponential escalation must respect the
// configured ceiling, never overflow into a negative Duration, and keep
// the historical doubling behaviour below the cap.
func TestEscalateCap(t *testing.T) {
	base := 10 * time.Millisecond
	// Doubling below the cap.
	if got := escalate(base, 0, time.Second); got != base {
		t.Fatalf("attempt 0 = %v, want %v", got, base)
	}
	if got := escalate(base, 3, time.Second); got != base<<3 {
		t.Fatalf("attempt 3 = %v, want %v", got, base<<3)
	}
	// Clamped at the cap.
	if got := escalate(base, 10, 100*time.Millisecond); got != 100*time.Millisecond {
		t.Fatalf("capped = %v, want 100ms", got)
	}
	// Saturation, not overflow, with absurd inputs and no cap.
	for _, attempt := range []int{16, 63, 1 << 20} {
		got := escalate(time.Hour*1e6, attempt, 0)
		if got <= 0 {
			t.Fatalf("attempt %d: escalation overflowed to %v", attempt, got)
		}
	}
	// With a cap, even absurd inputs land exactly on the cap.
	if got := escalate(time.Hour*1e6, 1<<20, time.Minute); got != time.Minute {
		t.Fatalf("absurd capped = %v, want 1m", got)
	}
}

// TestRecvRetryHonorsMaxTimeout: a retry chain with an aggressive Timeout
// and many Retries must not stall for escalated deadlines beyond
// 4×Timeout — a regression test for the formerly unbounded doubling.
func TestRecvRetryHonorsMaxTimeout(t *testing.T) {
	tr := NewChanTransport(2)
	defer tr.Close()
	pol := RetryPolicy{Timeout: time.Millisecond, Retries: 8}
	for attempt, want := range []time.Duration{1, 2, 4, 4, 4, 4, 4, 4, 4} {
		if got := pol.Deadline(attempt); got != want*time.Millisecond {
			t.Fatalf("Deadline(%d) = %v, want %v", attempt, got, want*time.Millisecond)
		}
	}
	if got, want := pol.MaxWait(), 9*4*time.Millisecond; got != want {
		t.Fatalf("MaxWait = %v, want %v", got, want)
	}
	start := time.Now()
	_, err := RecvRetry(tr.Endpoint(0), pol, nil, "test", 1, 7)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("receive with no sender should fail")
	}
	// Deadlines uncapped: 1+2+...+256 = 511ms.  Capped: 1+2+4·7 = 31ms,
	// plus 79ms of backoff sleeps.
	if elapsed > 300*time.Millisecond {
		t.Fatalf("retry chain took %v; 4×Timeout cap not applied", elapsed)
	}
}
