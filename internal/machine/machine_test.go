package machine

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/msg"
)

func TestRunSPMD(t *testing.T) {
	m := New(4)
	defer m.Close()
	var ran atomic.Int64
	err := m.Run(func(ctx *Ctx) error {
		if ctx.NP() != 4 {
			t.Errorf("NP = %d", ctx.NP())
		}
		ran.Add(1)
		ctx.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 4 {
		t.Fatalf("ran on %d processors", ran.Load())
	}
}

func TestRunRecoversPanic(t *testing.T) {
	m := New(2)
	defer m.Close()
	err := m.Run(func(ctx *Ctx) error {
		if ctx.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestCollectiveOnce(t *testing.T) {
	m := New(4)
	defer m.Close()
	var created atomic.Int64
	var mu sync.Mutex
	seen := map[any]bool{}
	err := m.Run(func(ctx *Ctx) error {
		v := ctx.CollectiveOnce(func() any {
			created.Add(1)
			return &struct{ x int }{x: 7}
		})
		mu.Lock()
		seen[v] = true
		mu.Unlock()
		// a second collective site gets a distinct object
		v2 := ctx.CollectiveOnce(func() any { return new(int) })
		if v2 == v {
			t.Error("distinct collective sites shared an object")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if created.Load() != 1 {
		t.Fatalf("constructor ran %d times", created.Load())
	}
	if len(seen) != 1 {
		t.Fatalf("processors saw %d distinct objects", len(seen))
	}
}

func TestMachineOverTCP(t *testing.T) {
	tcp, err := msg.NewTCPTransport(3)
	if err != nil {
		t.Fatal(err)
	}
	m := New(3, WithTransport(tcp))
	defer m.Close()
	if err := m.Run(func(ctx *Ctx) error {
		out, err := ctx.Comm().AllreduceInts([]int{ctx.Rank()}, msg.SumInt)
		if err != nil {
			return err
		}
		if out[0] != 3 {
			t.Errorf("sum = %d", out[0])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestChargeWithCostModel(t *testing.T) {
	cm := msg.NewCostModel(2, 1e-4, 1e-9)
	m := New(2, WithCostModel(cm))
	defer m.Close()
	if err := m.Run(func(ctx *Ctx) error {
		ctx.Charge(float64(ctx.Rank()+1) * 0.5)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if cm.Clock(0) != 0.5 || cm.Clock(1) != 1.0 {
		t.Fatalf("clocks = %g, %g", cm.Clock(0), cm.Clock(1))
	}
	if m.Cost() != cm {
		t.Fatal("Cost() should return the attached model")
	}
}

func TestProcArrayColumnMajor(t *testing.T) {
	m := New(4)
	defer m.Close()
	r := m.Procs("R", [2]int{1, 2}, [2]int{1, 2})
	if r.Size() != 4 || r.dom.Rank() != 2 || r.dom.Extent(0) != 2 {
		t.Fatalf("shape wrong: size=%d", r.Size())
	}
	// Column-major: (1,1)=0 (2,1)=1 (1,2)=2 (2,2)=3
	if r.RankOf([]int{2, 1}) != 1 || r.RankOf([]int{1, 2}) != 2 {
		t.Fatalf("rank mapping wrong: %d %d", r.RankOf([]int{2, 1}), r.RankOf([]int{1, 2}))
	}
	c, ok := r.CoordsOf(3)
	if !ok || c[0] != 2 || c[1] != 2 {
		t.Fatalf("coords of 3 = %v", c)
	}
	if _, ok := r.CoordsOf(4); ok {
		t.Fatal("rank 4 should not exist")
	}
}

func TestProcArraySmallerThanMachine(t *testing.T) {
	m := New(8)
	defer m.Close()
	r := m.ProcsDim("R", 3)
	if r.Size() != 3 {
		t.Fatal("size")
	}
	if ranks := r.Whole().Ranks(); len(ranks) != 3 || ranks[2] != 2 {
		t.Fatalf("ranks = %v", ranks)
	}
}

func TestProcArrayRedeclare(t *testing.T) {
	m := New(4)
	defer m.Close()
	a := m.ProcsDim("R", 4)
	b := m.ProcsDim("R", 4)
	if a != b {
		t.Fatal("same declaration should return same array")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting redeclaration should panic")
		}
	}()
	m.ProcsDim("R", 2, 2)
}

func TestProcArrayTooLarge(t *testing.T) {
	m := New(2)
	defer m.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("oversized processor array should panic")
		}
	}()
	m.ProcsDim("R", 3)
}

func TestProcSection(t *testing.T) {
	m := New(6)
	defer m.Close()
	r := m.Procs("R", [2]int{1, 2}, [2]int{1, 3})    // 2x3
	s := r.Section([3]int{1, 2, 1}, [3]int{2, 2, 1}) // column 2, both rows: ranks (1,2)=2,(2,2)=3
	if s.Size() != 2 || s.NDims() != 2 {
		t.Fatalf("section size %d", s.Size())
	}
	ranks := s.Ranks()
	if len(ranks) != 2 || ranks[0] != 2 || ranks[1] != 3 {
		t.Fatalf("ranks = %v", ranks)
	}
	if got := s.RankOf([]int{1, 0}); got != 3 {
		t.Fatalf("RankOf dense (1,0) = %d want 3", got)
	}
	if c, ok := s.CoordsOf(3); !ok || c[0] != 1 || c[1] != 0 {
		t.Fatalf("CoordsOf(3) = %v %v", c, ok)
	}
	if _, ok := s.CoordsOf(0); ok {
		t.Fatal("rank 0 not in section")
	}
	_, in2 := s.CoordsOf(2)
	_, in4 := s.CoordsOf(4)
	if !in2 || in4 {
		t.Fatal("membership wrong")
	}
}

func TestProcSectionStrided(t *testing.T) {
	m := New(8)
	defer m.Close()
	r := m.ProcsDim("L", 8)
	s := r.Section([3]int{1, 8, 2}) // procs 1,3,5,7 -> ranks 0,2,4,6
	if s.Size() != 4 {
		t.Fatal("size")
	}
	want := []int{0, 2, 4, 6}
	for i, w := range want {
		if s.Ranks()[i] != w {
			t.Fatalf("ranks = %v", s.Ranks())
		}
	}
	if _, ok := s.CoordsOf(1); ok {
		t.Fatal("rank 1 should be outside strided section")
	}
	if c, ok := s.CoordsOf(4); !ok || c[0] != 2 {
		t.Fatalf("coords of 4 = %v", c)
	}
}

func TestWholeSection(t *testing.T) {
	m := New(4)
	defer m.Close()
	r := m.Procs("R", [2]int{1, 2}, [2]int{1, 2})
	w := r.Whole()
	_, in0 := w.CoordsOf(0)
	_, in3 := w.CoordsOf(3)
	if w.Size() != 4 || !in0 || !in3 {
		t.Fatal("whole section wrong")
	}
	if w.String() == "" {
		t.Fatal("string empty")
	}
}

// TestBodyErrorUnblocksPeersInBarrier: one rank's body returns an error
// while the others sit in a barrier.  The runtime must close the transport
// so the barrier returns an error instead of deadlocking, and Run must
// surface the *originating* body error, naming the failing rank.
func TestBodyErrorUnblocksPeersInBarrier(t *testing.T) {
	m := New(4)
	defer m.Close()
	err := m.Run(func(ctx *Ctx) error {
		if ctx.Rank() == 2 {
			return errors.New("disk on fire")
		}
		if err := ctx.Barrier(); err == nil {
			t.Errorf("rank %d: barrier should fail after rank 2 errored", ctx.Rank())
		}
		return nil
	})
	if err == nil {
		t.Fatal("Run should surface the body error")
	}
	for _, frag := range []string{"machine: rank 2", "disk on fire"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("err %q missing %q", err, frag)
		}
	}
	if strings.Contains(err.Error(), "panic") {
		t.Errorf("error propagation must not involve a panic: %q", err)
	}
}

// TestBarrierErrorOnClosedTransport: Ctx.Barrier reports transport
// shutdown as an error value rather than panicking.
func TestBarrierErrorOnClosedTransport(t *testing.T) {
	tr := msg.NewChanTransport(2)
	m := New(2, WithTransport(tr))
	defer m.Close()
	err := m.Run(func(ctx *Ctx) error {
		ctx.Barrier()
		if ctx.Rank() == 0 {
			tr.Close()
		}
		err := ctx.Barrier()
		if err == nil {
			t.Errorf("rank %d: barrier on closed transport should fail", ctx.Rank())
		}
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "machine: rank") {
		t.Fatalf("Run err = %v, want a rank-naming error", err)
	}
}

// TestCommConfigInstalled: WithRetry must reach every rank's Comm.
func TestCommConfigInstalled(t *testing.T) {
	cc := msg.RetryPolicy{Timeout: 123 * time.Millisecond, Retries: 5}
	m := New(2, WithRetry(cc))
	defer m.Close()
	if err := m.Run(func(ctx *Ctx) error {
		if got := ctx.Comm().Retry(); got != cc {
			t.Errorf("rank %d: retry policy = %+v, want %+v", ctx.Rank(), got, cc)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
