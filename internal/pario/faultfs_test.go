package pario

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/msg"
)

const goodFaultPlan = "eio,op=write,path=stripe-,rank=1,after=2,count=3;stall,delay=20ms,every=4;seed=7;bitrot,op=read,prob=0.5"

var badFaultPlans = []string{
	"", "zap", "eio,count", "eio,op=link", "eio,nope=1", "stall", "stall,count=2", "seed=x",
	// out-of-range values used to turn a scheduled fault into a
	// permanent one (or rank=-2 into "every rank") silently
	"eio,prob=-0.2", "eio,prob=1.5", "eio,prob=NaN", "eio,count=-1", "eio,after=-1", "eio,every=-3",
	"eio,rank=-2", "stall,delay=-20ms",
}

func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan(goodFaultPlan)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 7 || len(plan.Rules) != 3 {
		t.Fatalf("seed=%d rules=%d, want 7 and 3", plan.Seed, len(plan.Rules))
	}
	r := plan.Rules[0]
	if r.Kind != FaultEIO || r.Op != "write" || r.Path != "stripe-" || r.Rank != 1 || r.After != 2 || r.Count != 3 {
		t.Fatalf("rule 0 = %+v", r)
	}
	if plan.Rules[1].Kind != FaultStall || plan.Rules[1].Delay != 20*time.Millisecond || plan.Rules[1].Every != 4 {
		t.Fatalf("rule 1 = %+v", plan.Rules[1])
	}
	if plan.Rules[2].Kind != FaultBitrot || plan.Rules[2].Op != "read" || plan.Rules[2].Prob != 0.5 {
		t.Fatalf("rule 2 = %+v", plan.Rules[2])
	}
	for _, bad := range badFaultPlans {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted", bad)
		}
	}
}

// TestFaultSchedule pins the after/count/every windows and the per-rank
// isolation of the match counters: rank 1's operations must not advance
// rank 0's schedule.
func TestFaultSchedule(t *testing.T) {
	dir := t.TempDir()
	plan := &FaultPlan{Rules: []FaultRule{{Kind: FaultEIO, Op: "write", Rank: 0, After: 1, Count: 2}}}
	ff := NewFaultFS(OS{}, plan)
	f0, f1 := ff.Rank(0), ff.Rank(1)
	p := filepath.Join(dir, "x")
	var got []bool
	for i := 0; i < 5; i++ {
		// Interleave rank 1 writes; they must neither fail nor advance
		// rank 0's counter.
		if err := f1.WriteFile(p+"r1", []byte("ok"), 0o644); err != nil {
			t.Fatalf("rank 1 write %d: %v", i, err)
		}
		got = append(got, f0.WriteFile(p, []byte("ok"), 0o644) != nil)
	}
	want := []bool{false, true, true, false, false} // skip 1, fail 2, then clean
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank 0 failure schedule %v, want %v", got, want)
		}
	}

	plan = &FaultPlan{Rules: []FaultRule{{Kind: FaultEIO, Op: "write", Rank: -1, Every: 3}}}
	ff = NewFaultFS(OS{}, plan)
	f0 = ff.Rank(0)
	got = got[:0]
	for i := 0; i < 6; i++ {
		got = append(got, f0.WriteFile(p, []byte("ok"), 0o644) != nil)
	}
	want = []bool{true, false, false, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("every=3 schedule %v, want %v", got, want)
		}
	}
}

func TestProbScheduleSeeded(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "x")
	run := func() []bool {
		ff := NewFaultFS(OS{}, &FaultPlan{Seed: 42, Rules: []FaultRule{{Kind: FaultEIO, Op: "write", Rank: -1, Prob: 0.5}}})
		f := ff.Rank(3)
		var out []bool
		for i := 0; i < 32; i++ {
			out = append(out, f.WriteFile(p, []byte("ok"), 0o644) != nil)
		}
		return out
	}
	a, b := run(), run()
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("prob schedule not reproducible under a fixed seed")
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("prob=0.5 fired %d/%d times", hits, len(a))
	}
}

func TestShortWriteLeavesTornPrefix(t *testing.T) {
	dir := t.TempDir()
	ff := NewFaultFS(OS{}, &FaultPlan{Rules: []FaultRule{{Kind: FaultWriteShort, Rank: -1, Count: 1}}})
	f := ff.Rank(0)
	p := filepath.Join(dir, "f")
	data := []byte("0123456789abcdef")
	err := f.WriteFile(p, data, 0o644)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("short write error = %v, want ErrInjected", err)
	}
	got, rerr := os.ReadFile(p)
	if rerr != nil || string(got) != string(data[:len(data)/2]) {
		t.Fatalf("torn file = %q (%v), want the half prefix", got, rerr)
	}
	// The retry (rule exhausted) rewrites the whole file.
	if err := f.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(p); string(got) != string(data) {
		t.Fatalf("retry left %q", got)
	}
}

func TestBitrotWriteAndRead(t *testing.T) {
	dir := t.TempDir()
	ff := NewFaultFS(OS{}, &FaultPlan{Rules: []FaultRule{{Kind: FaultBitrot, Rank: -1, Count: 1}}})
	f := ff.Rank(0)
	p := filepath.Join(dir, "f")
	data := []byte("0123456789abcdef")
	if err := f.WriteFile(p, data, 0o644); err != nil {
		t.Fatalf("bitrot write reported %v, want silent success", err)
	}
	if string(data) != "0123456789abcdef" {
		t.Fatal("caller's buffer was mutated")
	}
	onDisk, _ := os.ReadFile(p)
	diff := 0
	for i := range onDisk {
		if onDisk[i] != data[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("stored copy differs in %d bytes, want exactly 1", diff)
	}

	ff = NewFaultFS(OS{}, &FaultPlan{Rules: []FaultRule{{Kind: FaultBitrot, Op: "read", Rank: -1, Count: 1}}})
	f = ff.Rank(0)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadFile(p)
	if err != nil || string(got) == string(data) {
		t.Fatalf("read-path bitrot did not fire (%v)", err)
	}
	if onDisk, _ := os.ReadFile(p); string(onDisk) != string(data) {
		t.Fatal("read-path bitrot damaged the file itself")
	}
}

func TestTornRename(t *testing.T) {
	dir := t.TempDir()
	ff := NewFaultFS(OS{}, &FaultPlan{Rules: []FaultRule{{Kind: FaultTornRename, Rank: -1, Count: 1}}})
	f := ff.Rank(0)
	staging := filepath.Join(dir, "epoch-00000000.tmp")
	if err := os.MkdirAll(staging, 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(staging, "a.bin"), []byte("aaaaaaaa"), 0o644)
	os.WriteFile(filepath.Join(staging, "b.bin"), []byte("bbbbbbbb"), 0o644)
	final := filepath.Join(dir, "epoch-00000000")
	if err := f.Rename(staging, final); err != nil {
		t.Fatalf("torn rename must report success, got %v", err)
	}
	a, _ := os.ReadFile(filepath.Join(final, "a.bin"))
	b, _ := os.ReadFile(filepath.Join(final, "b.bin"))
	if string(a) != "aaaaaaaa" {
		t.Fatalf("a.bin = %q, want intact", a)
	}
	if string(b) != "bbbb" {
		t.Fatalf("b.bin = %q, want the torn half", b)
	}
}

// TestStallTimeoutRetry drives a stalled write through Disk's deadline:
// the first attempt exceeds Timeout, the retry hits a clean device.
func TestStallTimeoutRetry(t *testing.T) {
	dir := t.TempDir()
	ff := NewFaultFS(OS{}, &FaultPlan{Rules: []FaultRule{{Kind: FaultStall, Op: "write", Rank: -1, Count: 1, Delay: 200 * time.Millisecond}}})
	met := &Metrics{}
	d := Disk{FS: ff.Rank(0), Retry: msg.RetryPolicy{Timeout: 20 * time.Millisecond, Retries: 2}, Metrics: met}
	p := filepath.Join(dir, "f")
	if err := d.WriteFile(p, []byte("ok")); err != nil {
		t.Fatalf("stalled write did not heal on retry: %v", err)
	}
	if met.Retries.Load() == 0 {
		t.Fatal("no retry was recorded")
	}
	// The stalled first attempt may still land in the background; what
	// matters is the caller got a success and the content is right.
	time.Sleep(250 * time.Millisecond)
	if got, _ := os.ReadFile(p); string(got) != "ok" {
		t.Fatalf("file = %q", got)
	}
}

// TestStallDeadlineEscalates: a device that stalls every write for longer
// than Timeout but less than twice it heals on the first retry, because
// the retry's deadline doubles as on the wire.  A fixed per-attempt
// deadline times out on every attempt.
func TestStallDeadlineEscalates(t *testing.T) {
	dir := t.TempDir()
	const stall = 150 * time.Millisecond
	ff := NewFaultFS(OS{}, &FaultPlan{Rules: []FaultRule{{Kind: FaultStall, Op: "write", Rank: -1, Delay: stall}}})
	met := &Metrics{}
	d := Disk{FS: ff.Rank(0), Retry: msg.RetryPolicy{Timeout: 100 * time.Millisecond, Retries: 1}, Metrics: met}
	p := filepath.Join(dir, "f")
	if err := d.WriteFile(p, []byte("ok")); err != nil {
		t.Fatalf("stalled write did not heal under the escalated deadline: %v", err)
	}
	if got := met.Retries.Load(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	time.Sleep(stall) // let the timed-out first attempt land before cleanup
}

func TestRetryHealsEIO(t *testing.T) {
	dir := t.TempDir()
	ff := NewFaultFS(OS{}, &FaultPlan{Rules: []FaultRule{{Kind: FaultEIO, Op: "write", Rank: -1, Count: 2}}})
	met := &Metrics{}
	d := Disk{FS: ff.Rank(0), Retry: msg.RetryPolicy{Retries: 2}, Metrics: met}
	p := filepath.Join(dir, "f")
	if err := d.WriteFile(p, []byte("ok")); err != nil {
		t.Fatalf("EIO did not heal within the retry budget: %v", err)
	}
	if got := met.Retries.Load(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	if met.WriteOps.Load() != 1 || met.BytesWritten.Load() != 2 {
		t.Fatalf("metrics = %d ops / %d bytes, want 1/2", met.WriteOps.Load(), met.BytesWritten.Load())
	}
	// A persistent fault exhausts the budget and surfaces.
	ff = NewFaultFS(OS{}, &FaultPlan{Rules: []FaultRule{{Kind: FaultEIO, Op: "write", Rank: -1}}})
	d.FS = ff.Rank(0)
	if err := d.WriteFile(p, []byte("ok")); !errors.Is(err, ErrInjected) {
		t.Fatalf("persistent EIO = %v, want ErrInjected", err)
	}
}

// FuzzParseFaultPlan: the parser never panics, and whatever it accepts
// is a schedule that means what it says — no value out of range that the
// firing rule would silently read as "persistent" or "every rank".
func FuzzParseFaultPlan(f *testing.F) {
	f.Add(goodFaultPlan)
	f.Add("short,path=manifest;torn,count=1;bitrot,every=2")
	for _, bad := range badFaultPlans {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseFaultPlan(spec)
		if err != nil {
			if plan != nil || !strings.HasPrefix(err.Error(), "pario: fault plan: ") {
				t.Fatalf("ParseFaultPlan(%q) = %v, %v", spec, plan, err)
			}
			return
		}
		if len(plan.Rules) == 0 {
			t.Fatalf("ParseFaultPlan(%q) accepted a plan with no rules", spec)
		}
		for _, r := range plan.Rules {
			if r.Kind < 0 || int(r.Kind) >= len(faultKinds) || (r.Op != "" && !slices.Contains(faultOps, r.Op)) ||
				r.Rank < -1 || r.After < 0 || r.Count < 0 || r.Every < 0 ||
				!(r.Prob >= 0 && r.Prob <= 1) || r.Delay < 0 ||
				(faultKinds[r.Kind].NeedDelay && r.Delay <= 0) {
				t.Fatalf("ParseFaultPlan(%q) accepted out-of-range rule %+v", spec, r)
			}
		}
	})
}
