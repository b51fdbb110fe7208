package darray

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
)

// TestFaultMatrix replays each collective pattern of the runtime —
// barrier, bcast, gather, alltoallv, ghost exchange, redistribute — under
// an injected send error, a delivery delay, and a dropped frame, on both
// transports.  Every cell must either complete after retry (send errors
// and delays heal under the retry policy) or return a wrapped
// error naming the operation and a rank (drops are unrecoverable: only the
// deadline unblocks the receiver).  Nothing may panic.  A redistribute
// has no global commit: each rank ends it holding either the new
// distribution (it completed) or its old one (it failed), with the values
// that distribution says it owns.
func TestFaultMatrix(t *testing.T) {
	faults := []struct {
		name      string
		rule      msg.FaultRule
		expectErr bool
	}{
		{"senderr", msg.FaultRule{Kind: msg.FaultSendErr, Rank: faultRank, Peer: -1, Count: 1}, false},
		{"delay", msg.FaultRule{Kind: msg.FaultRecvDelay, Rank: faultRank, Peer: -1, Count: 1, Delay: 40 * time.Millisecond}, false},
		{"drop", msg.FaultRule{Kind: msg.FaultDrop, Rank: faultRank, Peer: -1, Count: 1}, true},
	}
	ops := []struct {
		name string
		frag string // fragment every failure error must carry
	}{
		{"barrier", "barrier"},
		{"bcast", "bcast"},
		{"gather", "gather"},
		{"alltoallv", "alltoallv"},
		{"ghost", "ghost"},
		{"redistribute", "redistribution"},
	}
	for _, transport := range []string{"chan", "tcp"} {
		for _, op := range ops {
			for _, fc := range faults {
				t.Run(transport+"/"+op.name+"/"+fc.name, func(t *testing.T) {
					errs := runFaultCase(t, transport, op.name, fc.rule)
					if failed := checkFaultErrs(t, errs, op.name, op.frag, fc.expectErr); fc.expectErr && failed == 0 {
						t.Errorf("%s: frame dropped but every rank completed", op.name)
					}
				})
			}
		}
	}
}

// TestFaultMatrixOfferToken aims the fault at the one message a pulled
// DISTRIBUTE transfer sends — the offer (win=1 matches only window
// traffic, so barriers pass), which the fault layer frames with its
// packed payload on both transports — in the three ways that cannot heal
// inside the deadline: the offer is lost, it arrives after every retry
// gave up, or the send fails more often than it is retried.  The rank
// waiting for it fails with an error naming the redistribution and keeps
// its old distribution and values; ranks that did not need the offer
// complete (runFaultCase checks each rank's values and descriptor).
// Recovering from the mixed state is core.RunEpochs' checkpoint replay.
func TestFaultMatrixOfferToken(t *testing.T) {
	faults := []struct {
		name string
		rule msg.FaultRule
	}{
		{"drop", msg.FaultRule{Kind: msg.FaultDrop, Rank: faultRank, Peer: -1, Count: 1, Win: true}},
		// 20+40+80+160 ms of escalating deadlines pass before the token does.
		{"delay", msg.FaultRule{Kind: msg.FaultRecvDelay, Rank: faultRank, Peer: -1, Count: 1, Delay: 600 * time.Millisecond, Win: true}},
		{"fail", msg.FaultRule{Kind: msg.FaultSendErr, Rank: faultRank, Peer: -1, Win: true}},
	}
	for _, transport := range []string{"chan", "tcp"} {
		for _, fc := range faults {
			t.Run(transport+"/"+fc.name, func(t *testing.T) {
				errs := runFaultCase(t, transport, "redistribute", fc.rule)
				if failed := checkFaultErrs(t, errs, "redistribute", "redistribution", true); failed == 0 {
					t.Errorf("no rank failed: %v", errs)
				}
			})
		}
	}
}

// TestFaultMatrixRedistributeBitflip: a bit flipped in a DISTRIBUTE's
// window traffic surfaces as msg.ErrIntegrity on both transports — on
// chan too, where the fault and integrity layers take the offers off the
// shared-memory token path and frame their payloads.  No rank may commit
// a corrupted value (runFaultCase checks each rank's values).
func TestFaultMatrixRedistributeBitflip(t *testing.T) {
	rule := msg.FaultRule{Kind: msg.FaultCorrupt, Rank: faultRank, Peer: -1, Count: 1, Win: true}
	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			errs := runFaultCase(t, transport, "redistribute", rule)
			if failed := checkFaultErrs(t, errs, "redistribute", "redistribution", true); failed == 0 {
				t.Fatalf("no rank failed: %v", errs)
			}
			if !slices.ContainsFunc(errs, func(err error) bool { return errors.Is(err, msg.ErrIntegrity) }) {
				t.Errorf("errors %v, want a wrapped msg.ErrIntegrity", errs)
			}
		})
	}
}

const faultRank = 1 // the rank whose sends/receives carry the injected fault

// runFaultCase runs one operation on four ranks with rule armed on
// faultRank for exactly that operation and returns each rank's error.  A
// corrupt rule implies the CRC32C layer outside the fault layer, as in
// apps.NewMachine.
func runFaultCase(t *testing.T, transport, opName string, rule msg.FaultRule) []error {
	const np = 4
	plan := &msg.FaultPlan{StartDisarmed: true, Rules: []msg.FaultRule{rule}}
	var base msg.Transport
	if transport == "tcp" {
		tcp, err := msg.NewTCPTransport(np)
		if err != nil {
			t.Fatal(err)
		}
		base = tcp
	} else {
		base = msg.NewChanTransport(np)
	}
	ft := msg.NewFaultTransport(base, plan)
	var tr msg.Transport = ft
	if rule.Kind == msg.FaultCorrupt {
		tr = msg.NewIntegrityTransport(ft)
	}
	cfg := msg.RetryPolicy{Timeout: 20 * time.Millisecond, Retries: 3}
	m := machine.New(np, machine.WithTransport(tr), machine.WithRetry(cfg))
	defer m.Close()

	errs := make([]error, np)
	if err := m.Run(func(ctx *machine.Ctx) error {
		rank := ctx.Rank()
		// Setup runs with injection disarmed, so the fault schedule counts
		// only the phase under test.
		tg := ctx.Machine().ProcsDim("P", np).Whole()
		dom := index.Dim(16)
		blk := dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg)
		cyc := dist.MustNew(dist.NewType(dist.CyclicDim(1)), dom, tg)
		val := func(p index.Point) float64 { return float64(p[0] * 3) }
		var a *Array
		switch opName {
		case "ghost":
			a = New(ctx, "A", dom, blk, WithGhost(1))
		case "redistribute":
			a = New(ctx, "A", dom, blk)
		}
		if a != nil {
			a.FillFunc(ctx, val)
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}
		// All of a rank's own barrier sends precede its Barrier() return,
		// so arming here makes faultRank's next matching operation the
		// first of the op under test.
		if rank == faultRank {
			ft.Arm(faultRank)
		}
		var opErr error
		switch opName {
		case "barrier":
			opErr = ctx.Barrier()
		case "bcast":
			var buf []byte
			if rank == faultRank {
				buf = msg.EncodeInts([]int{4242})
			}
			out, err := ctx.Comm().Bcast(faultRank, buf)
			opErr = err
			if err == nil {
				if got := msg.DecodeInts(out)[0]; got != 4242 {
					t.Errorf("rank %d: bcast got %d, want 4242", rank, got)
				}
			}
		case "gather":
			parts, err := ctx.Comm().Gather(0, msg.EncodeInts([]int{rank * 11}))
			opErr = err
			if err == nil && rank == 0 {
				for r, p := range parts {
					if got := msg.DecodeInts(p)[0]; got != r*11 {
						t.Errorf("gather[%d] = %d, want %d", r, got, r*11)
					}
				}
			}
		case "alltoallv":
			send := make([][]byte, np)
			for to := range send {
				send[to] = msg.EncodeInts([]int{rank*100 + to})
			}
			recv, err := ctx.Comm().Alltoallv(send)
			opErr = err
			if err == nil {
				for from, p := range recv {
					if got := msg.DecodeInts(p)[0]; got != from*100+rank {
						t.Errorf("rank %d: alltoallv from %d = %d", rank, from, got)
					}
				}
			}
		case "ghost":
			opErr = a.ExchangeAllGhosts(ctx)
			if opErr == nil && rank > 0 {
				// west ghost cell holds the left neighbour's last element
				l := a.Local(ctx)
				lo, _, _ := l.Segment()
				if got := l.At(index.Point{lo[0] - 1}); got != val(index.Point{lo[0] - 1}) {
					t.Errorf("rank %d: ghost cell = %v, want %v", rank, got, val(index.Point{lo[0] - 1}))
				}
			}
		case "redistribute":
			opErr = a.RedistributeTo(ctx, cyc)
			if opErr == nil {
				if !a.Dist(rank).Equal(cyc) {
					t.Errorf("rank %d: dist after redistribute = %v, want cyclic", rank, a.DistType(rank))
				}
			} else if !a.Dist(rank).Equal(blk) {
				// A rank that failed has not committed: its old association
				// and data are intact.
				t.Errorf("rank %d: failed redistribute left dist %v, want old block dist", rank, a.DistType(rank))
			}
			bad := 0
			a.Local(ctx).ForEachOwned(func(p index.Point, v *float64) {
				if *v != val(p) {
					bad++
				}
			})
			if bad != 0 {
				t.Errorf("rank %d: %d wrong values after redistribute (err=%v)", rank, bad, opErr)
			}
		}
		if rank == faultRank {
			ft.Disarm(faultRank)
		}
		errs[rank] = opErr
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return errs
}

// checkFaultErrs holds every failure to the matrix's error contract (it
// names the operation and a rank, and is not a panic; under a healable
// fault there is none) and returns how many ranks failed.
func checkFaultErrs(t *testing.T, errs []error, opName, opFrag string, expectErr bool) (failed int) {
	t.Helper()
	for r, err := range errs {
		if err == nil {
			continue
		}
		failed++
		if !expectErr {
			t.Errorf("rank %d: %s failed under a healable fault: %v", r, opName, err)
			continue
		}
		for _, frag := range []string{opFrag, "rank"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("rank %d: error %q does not name %q", r, err, frag)
			}
		}
		if strings.Contains(err.Error(), "panic") {
			t.Errorf("rank %d: fault surfaced as a panic: %q", r, err)
		}
	}
	return failed
}
