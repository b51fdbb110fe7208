package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/trace"
)

// The connect class of the class-move tests: PRIM, SEC CONNECT(=PRIM),
// ALN aligned with PRIM transposed, and KEEP CONNECT(=PRIM), which every
// DISTRIBUTE lists NOTRANSFER.  Each member holds its own values.
var (
	classDom   = index.Dim(24, 24)
	classNames = []string{"PRIM", "SEC", "ALN", "KEEP"}
	classVals  = []func(index.Point) float64{
		func(p index.Point) float64 { return float64(100*p[0] + p[1]) },
		func(p index.Point) float64 { return -float64(100*p[0]+p[1]) - 0.25 },
		func(p index.Point) float64 { return float64(p[0]*p[1]) + 0.5 },
		func(p index.Point) float64 { return float64(7 + p[0] - p[1]) },
	}
	// classMoves are PRIM's distribution types in turn: a rect crossing
	// (every pair through the windows), two CYCLIC(3) crossings (packed)
	// and a rect crossing back.
	classMoves = []dist.Type{
		dist.NewType(dist.ElidedDim(), dist.BlockDim()),
		dist.NewType(dist.CyclicDim(3), dist.ElidedDim()),
		dist.NewType(dist.BlockDim(), dist.ElidedDim()),
		dist.NewType(dist.ElidedDim(), dist.BlockDim()),
	}
)

// declareClass declares the test class distributed (BLOCK, :) and fills it.
func declareClass(ctx *machine.Ctx, e *Engine) []*Array {
	rows := &DistSpec{Type: dist.NewType(dist.BlockDim(), dist.ElidedDim())}
	transpose := dist.Transpose2D()
	decls := []Decl{
		{Name: "PRIM", Domain: classDom, Dynamic: true, Init: rows},
		{Name: "SEC", Domain: classDom, Dynamic: true, ConnectTo: "PRIM"},
		{Name: "ALN", Domain: classDom, Dynamic: true, ConnectTo: "PRIM", Align: &transpose},
		{Name: "KEEP", Domain: classDom, Dynamic: true, ConnectTo: "PRIM"},
	}
	out := make([]*Array, len(decls))
	for i, d := range decls {
		out[i] = e.MustDeclare(ctx, d)
		out[i].FillFunc(ctx, classVals[i])
	}
	return out
}

// moveTraffic is what one move put on the wire, from the senders' traces.
type moveTraffic struct {
	msgs  int
	bytes int64
	pairs map[[2]int]bool // (sender, receiver) of every data message
}

// classRun is one run of the class through classMoves.
type classRun struct {
	moves []moveTraffic
	vals  [][]float64 // per member, gathered after the last move
}

// runClass moves the test class through classMoves on four ranks.  With
// perMember each member moves alone through darray, to the distribution
// the DISTRIBUTE statement derives for it; otherwise every move is the
// statement, under the given memory budget (0: none).
func runClass(t *testing.T, transport string, perMember bool, budget int64) classRun {
	t.Helper()
	const np = 4
	tr := trace.New(np)
	var tp msg.Transport = msg.NewChanTransport(np, msg.WithTracer(tr))
	if transport == "tcp" {
		tcp, err := msg.NewTCPTransport(np, msg.WithTracer(tr))
		if err != nil {
			t.Fatal(err)
		}
		tp = tcp
	}
	m := machine.New(np, machine.WithTransport(tp))
	defer m.Close()
	e := NewEngine(m)
	e.SetMemBudget(budget)
	out := classRun{moves: make([]moveTraffic, len(classMoves)), vals: make([][]float64, len(classNames))}
	for i := range out.moves {
		out.moves[i].pairs = map[[2]int]bool{}
	}
	var mu sync.Mutex
	if err := m.Run(func(ctx *machine.Ctx) error {
		a := declareClass(ctx, e)
		for i, typ := range classMoves {
			if err := ctx.Barrier(); err != nil {
				return err
			}
			prank := ctx.PhysRank()
			before := len(tr.Events(prank))
			if perMember {
				prim := dist.MustNew(typ, classDom, e.DefaultTarget())
				for j, x := range a {
					d := prim
					var opts []darray.RedistOption
					switch x.Name() {
					case "SEC":
						d, _ = dist.Extract(prim, classDom)
					case "ALN":
						d, _ = dist.Construct(dist.Transpose2D(), prim, classDom)
					case "KEEP":
						d, _ = dist.Extract(prim, classDom)
						opts = append(opts, darray.NoTransfer())
					}
					if err := a[j].DArray().RedistributeTo(ctx, d, opts...); err != nil {
						return err
					}
				}
			} else if err := e.Distribute(ctx, a[:1], DimsOf(typ.Dims...), NoTransfer(a[3])); err != nil {
				return err
			}
			if err := ctx.Barrier(); err != nil {
				return err
			}
			mu.Lock()
			for _, ev := range tr.Events(prank)[before:] {
				if ev.Cat == trace.CatMsg && ev.Name == "send" && ev.Bytes > 0 {
					mv := &out.moves[i]
					mv.msgs++
					mv.bytes += ev.Bytes
					mv.pairs[[2]int{ctx.Rank(), ev.Peer}] = true
				}
			}
			mu.Unlock()
		}
		for j, x := range a {
			v, err := x.GatherTo(ctx, 0)
			if err != nil {
				return err
			}
			if ctx.Rank() == 0 {
				out.vals[j] = v
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameClassValues fails unless both runs left every member bit-identical.
func sameClassValues(t *testing.T, got, want classRun) {
	t.Helper()
	for j, name := range classNames {
		for i := range want.vals[j] {
			if g, w := got.vals[j][i], want.vals[j][i]; math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s element %d: %v, per-member moves give %v", name, i, g, w)
				break
			}
		}
	}
}

// TestDistributeClassOneMessagePerPair: a DISTRIBUTE of the class sends
// one data message per moving sender–receiver pair — the union of the
// pairs its members' own moves would use — carrying exactly the bytes
// those moves carry, through the windows (rect crossings) and packed
// (CYCLIC(3) crossings), on both transports; the NOTRANSFER member puts
// nothing on the wire, and every member ends bit-identical to per-member
// moves.
func TestDistributeClassOneMessagePerPair(t *testing.T) {
	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			class := runClass(t, transport, false, 0)
			member := runClass(t, transport, true, 0)
			for i, mv := range class.moves {
				want := member.moves[i]
				if mv.msgs != len(want.pairs) || mv.bytes != want.bytes {
					t.Errorf("move %d: %d messages of %d bytes, want one per moving pair (%d) of %d bytes",
						i, mv.msgs, mv.bytes, len(want.pairs), want.bytes)
				}
				if fmt.Sprint(mv.pairs) != fmt.Sprint(want.pairs) {
					t.Errorf("move %d: pairs %v, per-member pairs %v", i, mv.pairs, want.pairs)
				}
				if want.msgs <= mv.msgs {
					t.Errorf("move %d: per-member moves send %d messages, the class %d: the class is not moving together", i, want.msgs, mv.msgs)
				}
			}
			sameClassValues(t, class, member)
		})
	}
}

// TestDistributeClassMemBudgetPerMember: under a memory budget each member
// moves as its own group, so the statement sends what per-member moves
// send, message for message and byte for byte, and the values match.
func TestDistributeClassMemBudgetPerMember(t *testing.T) {
	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			class := runClass(t, transport, false, 1<<30)
			member := runClass(t, transport, true, 0)
			for i, mv := range class.moves {
				if want := member.moves[i]; mv.msgs != want.msgs || mv.bytes != want.bytes {
					t.Errorf("move %d: %d messages of %d bytes under a budget, per-member moves %d of %d",
						i, mv.msgs, mv.bytes, want.msgs, want.bytes)
				}
			}
			sameClassValues(t, class, member)
		})
	}
}

// lagTransport slows every receive of one rank, so that rank pulls a
// class move's segments after its peers have finished the move.  Its
// endpoints keep the inner transport's shared-memory fast path: over chan
// the class moves through offer tokens and done tokens, as it does
// unwrapped.
type lagTransport struct {
	msg.Transport
	rank  int
	delay time.Duration
}

func (t lagTransport) Endpoint(rank int) msg.Endpoint {
	ep := t.Transport.Endpoint(rank)
	if rank != t.rank {
		return ep
	}
	_, shared := ep.(interface{ SharedMemory() bool })
	return lagEndpoint{ep, t.delay, shared}
}

type lagEndpoint struct {
	msg.Endpoint
	delay  time.Duration
	shared bool
}

func (e lagEndpoint) Recv(from, tag int) (msg.Packet, error) {
	time.Sleep(e.delay)
	return e.Endpoint.Recv(from, tag)
}

func (e lagEndpoint) RecvTimeout(from, tag int, d time.Duration) (msg.Packet, error) {
	time.Sleep(e.delay)
	return e.Endpoint.RecvTimeout(from, tag, d)
}

func (e lagEndpoint) SharedMemory() bool { return e.shared }

// TestDistributeClassLaggingPuller: with rank 3 pulling late, every class
// move is followed by moving the secondary SEC alone through darray back
// to the distribution it left — onto the very storage rank 3 may still be
// pulling from.  SEC's Settle must wait for rank 3's done token on SEC's
// own window (the class's token travelled on PRIM's), so every value of
// every member stays exact on every rank, on both transports.
func TestDistributeClassLaggingPuller(t *testing.T) {
	const np = 4
	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			var base msg.Transport = msg.NewChanTransport(np)
			if transport == "tcp" {
				tcp, err := msg.NewTCPTransport(np)
				if err != nil {
					t.Fatal(err)
				}
				base = tcp
			}
			m := machine.New(np, machine.WithTransport(lagTransport{base, 3, time.Millisecond}))
			defer m.Close()
			e := NewEngine(m)
			if err := m.Run(func(ctx *machine.Ctx) error {
				a := declareClass(ctx, e)
				rows := dist.NewType(dist.BlockDim(), dist.ElidedDim())
				cols := dist.NewType(dist.ElidedDim(), dist.BlockDim())
				check := func(what string) {
					for j, x := range a[:3] { // KEEP is NOTRANSFER: it keeps only what stayed put
						bad := false
						x.Local(ctx).ForEachOwned(func(p index.Point, v *float64) {
							if w := classVals[j](p); *v != w && !bad {
								t.Errorf("rank %d %s: %s%v = %v, want %v", ctx.Rank(), what, x.Name(), p, *v, w)
								bad = true
							}
						})
					}
				}
				for round := 0; round < 6; round++ {
					to, back := cols, rows
					if round%2 == 1 {
						to, back = rows, cols
					}
					if err := e.Distribute(ctx, a[:1], DimsOf(to.Dims...), NoTransfer(a[3])); err != nil {
						return err
					}
					check(fmt.Sprintf("round %d, class move", round))
					if err := a[1].DArray().RedistributeTo(ctx, dist.MustNew(back, classDom, e.DefaultTarget())); err != nil {
						return err
					}
					check(fmt.Sprintf("round %d, SEC alone", round))
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDistributeClassFrameFault: a dropped or bit-flipped class frame (the
// first window message rank 1 sends in the move) fails the DISTRIBUTE on
// the rank waiting for it with an error naming the primary and both
// ranks, on both transports; a flipped bit surfaces as msg.ErrIntegrity.
func TestDistributeClassFrameFault(t *testing.T) {
	const np, sender = 4, 1
	for _, kind := range []msg.FaultKind{msg.FaultDrop, msg.FaultCorrupt} {
		for _, transport := range []string{"chan", "tcp"} {
			t.Run(fmt.Sprintf("%v/%s", kind, transport), func(t *testing.T) {
				var base msg.Transport = msg.NewChanTransport(np)
				if transport == "tcp" {
					tcp, err := msg.NewTCPTransport(np)
					if err != nil {
						t.Fatal(err)
					}
					base = tcp
				}
				ft := msg.NewFaultTransport(base, &msg.FaultPlan{StartDisarmed: true, Rules: []msg.FaultRule{
					{Kind: kind, Rank: sender, Peer: -1, Count: 1, Win: true}}})
				var tp msg.Transport = ft
				if kind == msg.FaultCorrupt {
					tp = msg.NewIntegrityTransport(ft)
				}
				m := machine.New(np, machine.WithTransport(tp), machine.WithRetry(msg.RetryPolicy{Timeout: 20 * time.Millisecond, Retries: 3}))
				defer m.Close()
				e := NewEngine(m)
				errs := make([]error, np)
				if err := m.Run(func(ctx *machine.Ctx) error {
					a := declareClass(ctx, e)
					if err := ctx.Barrier(); err != nil {
						return err
					}
					if ctx.Rank() == sender {
						ft.Arm(sender)
					}
					errs[ctx.Rank()] = e.Distribute(ctx, a[:1], DimsOf(classMoves[0].Dims...), NoTransfer(a[3]))
					if ctx.Rank() == sender {
						ft.Disarm(sender)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				// Rank 1's first window message is its ring round 1 offer, to
				// rank 2.
				err := errs[sender+1]
				if err == nil {
					t.Fatalf("rank %d completed the move; errors %v", sender+1, errs)
				}
				for _, frag := range []string{"DISTRIBUTE PRIM", fmt.Sprintf("rank %d", sender), fmt.Sprintf("rank %d", sender+1)} {
					if !strings.Contains(err.Error(), frag) {
						t.Errorf("rank %d: error %q does not name %q", sender+1, err, frag)
					}
				}
				if kind == msg.FaultCorrupt && !errors.Is(err, msg.ErrIntegrity) {
					t.Errorf("rank %d: error %v, want a wrapped msg.ErrIntegrity", sender+1, err)
				}
			})
		}
	}
}
