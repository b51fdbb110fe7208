package msg

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// runSPMD executes body on every endpoint of t concurrently and fails the
// test on any returned error.
func runSPMD(t *testing.T, tr Transport, body func(ep Endpoint) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, tr.NP())
	for r := 0; r < tr.NP(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = body(tr.Endpoint(r))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// transports returns fresh instances of both transport kinds.
func transports(t *testing.T, np int) map[string]Transport {
	t.Helper()
	tcp, err := NewTCPTransport(np)
	if err != nil {
		t.Fatalf("tcp transport: %v", err)
	}
	return map[string]Transport{
		"chan": NewChanTransport(np),
		"tcp":  tcp,
	}
}

func TestPointToPointBothTransports(t *testing.T) {
	for name, tr := range transports(t, 4) {
		t.Run(name, func(t *testing.T) {
			defer tr.Close()
			runSPMD(t, tr, func(ep Endpoint) error {
				rank, np := ep.Rank(), ep.NP()
				// ring: send rank to the right, receive from the left
				if err := ep.Send((rank+1)%np, 7, EncodeInts([]int{rank * 10})); err != nil {
					return err
				}
				p, err := ep.Recv((rank-1+np)%np, 7)
				if err != nil {
					return err
				}
				got := DecodeInts(p.Data)[0]
				want := ((rank - 1 + np) % np) * 10
				if got != want {
					t.Errorf("rank %d: got %d want %d", rank, got, want)
				}
				return nil
			})
		})
	}
}

func TestFIFOOrderPerSenderTag(t *testing.T) {
	for name, tr := range transports(t, 2) {
		t.Run(name, func(t *testing.T) {
			defer tr.Close()
			runSPMD(t, tr, func(ep Endpoint) error {
				if ep.Rank() == 0 {
					for i := 0; i < 100; i++ {
						if err := ep.Send(1, 3, EncodeInts([]int{i})); err != nil {
							return err
						}
					}
					return nil
				}
				for i := 0; i < 100; i++ {
					p, err := ep.Recv(0, 3)
					if err != nil {
						return err
					}
					if got := DecodeInts(p.Data)[0]; got != i {
						t.Errorf("out of order: got %d want %d", got, i)
					}
				}
				return nil
			})
		})
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	tr := NewChanTransport(3)
	defer tr.Close()
	runSPMD(t, tr, func(ep Endpoint) error {
		switch ep.Rank() {
		case 0:
			return ep.Send(2, 11, EncodeInts([]int{100}))
		case 1:
			return ep.Send(2, 22, EncodeInts([]int{200}))
		case 2:
			// Receive the tag-22 message first even though tag-11 may have
			// arrived earlier.
			p, err := ep.Recv(AnySource, 22)
			if err != nil {
				return err
			}
			if DecodeInts(p.Data)[0] != 200 || p.From != 1 {
				t.Errorf("tag-22 matched wrong message: %+v", p)
			}
			p, err = ep.Recv(0, AnyTag)
			if err != nil {
				return err
			}
			if DecodeInts(p.Data)[0] != 100 {
				t.Errorf("source match wrong: %+v", p)
			}
		}
		return nil
	})
}

func TestRecvTimeout(t *testing.T) {
	for name, tr := range transports(t, 2) {
		t.Run(name, func(t *testing.T) {
			defer tr.Close()
			ep := tr.Endpoint(0)
			start := time.Now()
			_, err := ep.RecvTimeout(1, 5, 30*time.Millisecond)
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("err = %v, want timeout", err)
			}
			if time.Since(start) > 2*time.Second {
				t.Fatal("timeout took far too long")
			}
			// and a successful timed receive
			if err := tr.Endpoint(1).Send(0, 5, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := ep.RecvTimeout(1, 5, time.Second); err != nil {
				t.Fatalf("expected delivery, got %v", err)
			}
		})
	}
}

func TestClosedTransport(t *testing.T) {
	tr := NewChanTransport(2)
	done := make(chan error)
	go func() {
		_, err := tr.Endpoint(0).Recv(1, 1)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	tr.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked recv returned %v, want ErrClosed", err)
	}
	if err := tr.Endpoint(0).Send(1, 1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed returned %v", err)
	}
}

func TestSendInvalidRank(t *testing.T) {
	tr := NewChanTransport(2)
	defer tr.Close()
	if err := tr.Endpoint(0).Send(5, 1, nil); err == nil {
		t.Fatal("send to rank 5 of 2 should fail")
	}
}

func TestDistributedMemorySemantics(t *testing.T) {
	// Mutating the sent buffer after Send must not affect the receiver.
	tr := NewChanTransport(2)
	defer tr.Close()
	runSPMD(t, tr, func(ep Endpoint) error {
		if ep.Rank() == 0 {
			buf := EncodeInts([]int{42})
			if err := ep.Send(1, 1, buf); err != nil {
				return err
			}
			for i := range buf {
				buf[i] = 0xFF
			}
			return nil
		}
		p, err := ep.Recv(0, 1)
		if err != nil {
			return err
		}
		if got := DecodeInts(p.Data)[0]; got != 42 {
			t.Errorf("receiver saw sender's mutation: %d", got)
		}
		return nil
	})
}

func TestCodecRoundTrips(t *testing.T) {
	f := []float64{0, 1.5, -2.25, 1e300, -0.0}
	got := DecodeFloat64s(EncodeFloat64s(f))
	for i := range f {
		if got[i] != f[i] {
			t.Fatalf("float64 roundtrip[%d] = %v want %v", i, got[i], f[i])
		}
	}
	dst := make([]float64, len(f))
	DecodeFloat64sInto(dst, EncodeFloat64s(f))
	if dst[3] != 1e300 {
		t.Fatal("DecodeFloat64sInto wrong")
	}
	ints := []int{0, -1, 1 << 40, -(1 << 40)}
	gi := DecodeInts(EncodeInts(ints))
	for i := range ints {
		if gi[i] != ints[i] {
			t.Fatalf("int roundtrip[%d] = %d want %d", i, gi[i], ints[i])
		}
	}
}

func TestStatsCounting(t *testing.T) {
	tr := NewChanTransport(2)
	defer tr.Close()
	runSPMD(t, tr, func(ep Endpoint) error {
		if ep.Rank() == 0 {
			if err := ep.Send(1, 1, make([]byte, 100)); err != nil {
				return err
			}
			return ep.Send(1, 1, make([]byte, 50))
		}
		for i := 0; i < 2; i++ {
			if _, err := ep.Recv(0, 1); err != nil {
				return err
			}
		}
		return nil
	})
	sn := tr.Stats().Snapshot()
	if sn.TotalMsgs() != 2 || sn.TotalBytes() != 150 {
		t.Fatalf("stats %v", sn)
	}
	if sn.MsgsSent[0] != 2 || sn.MsgsRecv[1] != 2 || sn.BytesRecv[1] != 150 {
		t.Fatalf("per-proc stats wrong: %+v", sn)
	}
	delta := sn.Sub(Snapshot{NP: 2, MsgsSent: []int64{1, 0}, BytesSent: []int64{0, 0}, MsgsRecv: []int64{0, 0}, BytesRecv: []int64{0, 0}})
	if delta.MsgsSent[0] != 1 {
		t.Fatal("Sub wrong")
	}
}

// TestStatsSentBySender: Sent reads one rank's data messages and bytes —
// zero-byte tokens excluded, a shared-memory window transfer credited to
// the rank that offered it — and no other rank's traffic moves it.
func TestStatsSentBySender(t *testing.T) {
	tr := NewChanTransport(2)
	defer tr.Close()
	win := NewWindow(2, "sent", tr.Stats(), nil)
	win.Register(0, make([]float64, 8))
	private := make([]float64, 8)
	runCommsOn(t, tr, func(c *Comm) error {
		if err := c.Barrier(); err != nil { // zero-byte tokens: not data
			return err
		}
		if c.Rank() == 1 {
			if _, err := c.Endpoint().Recv(0, 1); err != nil {
				return err
			}
			return win.Pull(c, 0, 1, []Share{{Win: win, Src: RectRun(0, 3), Dst: private, Dr: RectRun(0, 3)}})
		}
		if err := win.Settle(c); err != nil {
			return err
		}
		if err := c.Endpoint().Send(1, 1, make([]byte, 40)); err != nil {
			return err
		}
		return win.Offer(c, 1, 1, []Share{{Win: win, Src: RectRun(0, 3)}})
	})
	if m, b := tr.Stats().Sent(0); m != 2 || b != 40+24 {
		t.Errorf("Sent(0) = %d msgs, %d bytes; want 2, 64", m, b)
	}
	if m, b := tr.Stats().Sent(1); m != 0 || b != 0 {
		t.Errorf("Sent(1) = %d msgs, %d bytes; want 0, 0", m, b)
	}
}

func TestCostModelPointToPoint(t *testing.T) {
	cost := NewCostModel(2, 1e-4, 1e-8)
	tr := NewChanTransport(2, WithCost(cost))
	defer tr.Close()
	runSPMD(t, tr, func(ep Endpoint) error {
		if ep.Rank() == 0 {
			return ep.Send(1, 1, make([]byte, 1000))
		}
		_, err := ep.Recv(0, 1)
		return err
	})
	// receiver clock = 0 (send clock) + alpha + beta*1000
	want := 1e-4 + 1e-8*1000
	if got := cost.Clock(1); got < want*0.999 || got > want*1.001 {
		t.Fatalf("receiver clock = %g want %g", got, want)
	}
	// sender paid its overhead
	if got := cost.Clock(0); got != 5e-5 {
		t.Fatalf("sender clock = %g want %g", got, 5e-5)
	}
	if m := cost.Makespan(); m < want {
		t.Fatalf("makespan %g < %g", m, want)
	}
}

func TestCostModelCharge(t *testing.T) {
	cost := NewCostModel(1, 0, 0)
	cost.Charge(0, 2.5)
	cost.Charge(0, 0.5)
	if cost.Clock(0) != 3.0 {
		t.Fatalf("clock = %g", cost.Clock(0))
	}
}

// TestMailboxDropsReceivedPayload: once a receiver has taken a message
// and dropped it, nothing in the transport may keep the payload alive.
// Removing the last queued packet used to leave it — and its Data, up to
// a whole DISTRIBUTE transfer per mailbox — in the slice slot just past
// the new length until some later message overwrote it.
func TestMailboxDropsReceivedPayload(t *testing.T) {
	for _, d := range []time.Duration{0, time.Second} {
		m := &matcher{}
		m.cond.L = &m.mu
		freed := make(chan struct{})
		func() {
			payload := make([]byte, 1<<20)
			runtime.SetFinalizer(&payload[0], func(*byte) { close(freed) })
			m.put(Packet{From: 1, Tag: 7, Data: payload})
		}()
		p, err := m.get(1, 7, d)
		if err != nil || len(p.Data) != 1<<20 {
			t.Fatalf("deadline %v: get = %d bytes, %v", d, len(p.Data), err)
		}
		p = Packet{}
		deadline := time.After(5 * time.Second)
	wait:
		for {
			runtime.GC()
			select {
			case <-freed:
				break wait
			case <-deadline:
				t.Fatalf("deadline %v: received payload still reachable from the mailbox", d)
			case <-time.After(10 * time.Millisecond):
			}
		}
		runtime.KeepAlive(m) // the mailbox outlives the message, as a transport's does
	}
}
