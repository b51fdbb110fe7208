package machine

import (
	"errors"
	"testing"
	"time"

	"repro/internal/msg"
)

// joinMachine builds a machine with base active ranks plus reserve
// parked joiners, liveness, deadlines, and an optional fault plan.
func joinMachine(t *testing.T, base, reserve int, plan *msg.FaultPlan) *Machine {
	t.Helper()
	cc := hbCfg()
	var tr msg.Transport = msg.NewChanTransport(base + reserve)
	if plan != nil {
		tr = msg.NewFaultTransport(tr, plan)
	}
	return New(base, WithReserve(reserve), WithTransport(tr), WithRetry(cc))
}

// TestJoinAdmit: a reserved rank registers via AwaitJoin; the two active
// members agree via PollJoin, Admit it, and all three run collectives on
// the grown epoch-1 view — with the survivors' view ranks unchanged and
// the joiner numbered last.
func TestJoinAdmit(t *testing.T) {
	m := joinMachine(t, 2, 1, nil)
	defer m.Close()
	views := make([]int, 3) // physical rank -> view rank after the join
	err := m.Run(func(ctx *Ctx) error {
		if ctx.Reserved() {
			if err := ctx.AwaitJoin(); err != nil {
				return err
			}
		} else {
			// A few epoch-0 collectives first: the join must not disturb
			// an already-running epoch.
			if err := ctx.Barrier(); err != nil {
				return err
			}
			for {
				grow, err := ctx.PollJoin()
				if err != nil {
					return err
				}
				if grow {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if err := ctx.Admit(); err != nil {
				return err
			}
		}
		if ctx.Epoch() != 1 || ctx.NP() != 3 {
			t.Errorf("after join: epoch %d np %d, want 1, 3", ctx.Epoch(), ctx.NP())
		}
		views[ctx.PhysRank()] = ctx.Rank()
		got, err := ctx.Comm().AllreduceInts([]int{ctx.Rank() + 1}, msg.SumInt)
		if err != nil {
			return err
		}
		if got[0] != 6 { // 1+2+3: all three renumbered ranks participated
			t.Errorf("epoch-1 allreduce = %d, want 6", got[0])
		}
		return ctx.Barrier()
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if views[0] != 0 || views[1] != 1 || views[2] != 2 {
		t.Fatalf("view numbering = %v, want [0 1 2] (survivors unchanged, joiner last)", views)
	}
	if s := m.Survivors(); len(s) != 3 {
		t.Fatalf("survivors = %v, want all 3", s)
	}
}

// TestJoinNeverAdmitted: a reserved rank whose run ends without an
// admission gets ErrNeverJoined (a non-fatal exit), and the active
// epoch-0 view stays fully operational to the end.
func TestJoinNeverAdmitted(t *testing.T) {
	m := joinMachine(t, 2, 1, nil)
	defer m.Close()
	sawNeverJoined := false
	err := m.Run(func(ctx *Ctx) error {
		if ctx.Reserved() {
			err := ctx.AwaitJoin()
			if errors.Is(err, ErrNeverJoined) {
				sawNeverJoined = true
			} else {
				t.Errorf("AwaitJoin without admission = %v, want ErrNeverJoined", err)
			}
			return err
		}
		for i := 0; i < 3; i++ {
			if err := ctx.Barrier(); err != nil {
				return err
			}
		}
		if ctx.Epoch() != 0 || ctx.NP() != 2 {
			t.Errorf("members drifted to epoch %d np %d, want 0, 2", ctx.Epoch(), ctx.NP())
		}
		return nil
	})
	if err != nil {
		t.Fatalf("never-admitted joiner must not abort the run: %v", err)
	}
	if !sawNeverJoined {
		t.Fatal("reserved rank never saw ErrNeverJoined")
	}
}

// TestAdmitNothingPending: Admit with no registered joiner is a plain
// error on every member — a rejected join — and the epoch-0 view keeps
// working afterwards.
func TestAdmitNothingPending(t *testing.T) {
	m := joinMachine(t, 2, 1, nil)
	defer m.Close()
	err := m.Run(func(ctx *Ctx) error {
		if ctx.Reserved() {
			return nil // never registers
		}
		err := ctx.Admit()
		if err == nil {
			return errors.New("Admit with nothing pending should fail")
		}
		if errors.Is(err, ErrExcluded) || errors.Is(err, ErrEpochRevoked) {
			return errors.New("want a plain no-joiner error, got: " + err.Error())
		}
		if ctx.Epoch() != 0 {
			t.Errorf("failed Admit moved the epoch to %d", ctx.Epoch())
		}
		return ctx.Barrier() // the epoch-e view is still operational
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRegroupTwoDeadSameWindow: two ranks go silent at the same moment;
// the mask agreement must converge on the union and
// produce one epoch transition excluding both.
func TestRegroupTwoDeadSameWindow(t *testing.T) {
	cc := hbCfg()
	plan := &msg.FaultPlan{Rules: []msg.FaultRule{
		{Kind: msg.FaultDrop, Rank: 2, Peer: -1, After: 0},
		{Kind: msg.FaultDrop, Rank: 3, Peer: -1, After: 0},
	}}
	m := New(5, WithTransport(msg.NewFaultTransport(msg.NewChanTransport(5), plan)),
		WithRetry(cc))
	defer m.Close()
	err := m.Run(func(ctx *Ctx) error {
		var err error
		for i := 0; i < 400 && err == nil; i++ {
			time.Sleep(5 * time.Millisecond)
			err = ctx.Barrier()
		}
		if err == nil {
			return errors.New("no revocation observed")
		}
		if rerr := ctx.Regroup(); rerr != nil {
			return rerr // both dead ranks exit with ErrExcluded
		}
		if ctx.Epoch() != 1 || ctx.NP() != 3 {
			t.Errorf("after double-death regroup: epoch %d np %d, want 1, 3", ctx.Epoch(), ctx.NP())
		}
		got, err := ctx.Comm().AllreduceInts([]int{ctx.Rank() + 1}, msg.SumInt)
		if err != nil {
			return err
		}
		if got[0] != 6 {
			t.Errorf("epoch-1 allreduce = %d, want 6", got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if s := m.Survivors(); len(s) != 3 || s[0] != 0 || s[1] != 1 || s[2] != 4 {
		t.Fatalf("survivors = %v, want [0 1 4]", s)
	}
}

// TestJoinRacesDeath: a joiner registers while a member is dying.  The
// survivors' single Regroup both excludes the dead rank and admits the
// pending joiner — one transition, one new epoch, net size unchanged.
func TestJoinRacesDeath(t *testing.T) {
	m := joinMachine(t, 3, 1, killPlan(t, 1, 0))
	defer m.Close()
	views := make([]int, 4)
	for i := range views {
		views[i] = -1
	}
	err := m.Run(func(ctx *Ctx) error {
		if ctx.Reserved() {
			if err := ctx.AwaitJoin(); err != nil {
				return err
			}
		} else {
			var err error
			for i := 0; i < 400 && err == nil; i++ {
				time.Sleep(5 * time.Millisecond)
				err = ctx.Barrier()
			}
			if err == nil {
				return errors.New("no revocation observed")
			}
			if rerr := ctx.Regroup(); rerr != nil {
				return rerr // the killed rank exits with ErrExcluded
			}
		}
		if ctx.Epoch() != 1 || ctx.NP() != 3 {
			t.Errorf("after join-during-death: epoch %d np %d, want 1, 3", ctx.Epoch(), ctx.NP())
		}
		views[ctx.PhysRank()] = ctx.Rank()
		got, err := ctx.Comm().AllreduceInts([]int{ctx.Rank() + 1}, msg.SumInt)
		if err != nil {
			return err
		}
		if got[0] != 6 {
			t.Errorf("epoch-1 allreduce = %d, want 6", got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Members [phys 0, 2] compact to views 0, 1; the joiner (phys 3) is
	// numbered last; the dead rank holds no view.
	if views[0] != 0 || views[1] != -1 || views[2] != 1 || views[3] != 2 {
		t.Fatalf("view numbering = %v, want [0 -1 1 2]", views)
	}
}
