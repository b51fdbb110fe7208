package msg

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// runComms executes body on a Comm per rank over a chan transport.
func runComms(t *testing.T, np int, body func(c *Comm) error) *ChanTransport {
	t.Helper()
	tr := NewChanTransport(np)
	runCommsOn(t, tr, body)
	return tr
}

func runCommsOn(t *testing.T, tr Transport, body func(c *Comm) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, tr.NP())
	for r := 0; r < tr.NP(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = body(NewComm(tr.Endpoint(r)))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestBarrierAllSizes(t *testing.T) {
	for _, np := range []int{1, 2, 3, 4, 5, 8, 13} {
		var mu sync.Mutex
		entered := 0
		tr := runComms(t, np, func(c *Comm) error {
			mu.Lock()
			entered++
			mu.Unlock()
			if err := c.Barrier(); err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			if entered != np {
				t.Errorf("np=%d: barrier released before all %d entered (saw %d)", np, np, entered)
			}
			return nil
		})
		tr.Close()
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	for _, np := range []int{1, 2, 3, 7, 8} {
		for root := 0; root < np; root++ {
			tr := runComms(t, np, func(c *Comm) error {
				var buf []byte
				if c.Rank() == root {
					buf = EncodeInts([]int{root*1000 + 7})
				}
				out, err := c.Bcast(root, buf)
				if err != nil {
					return err
				}
				if got := DecodeInts(out)[0]; got != root*1000+7 {
					t.Errorf("np=%d root=%d rank=%d: got %d", np, root, c.Rank(), got)
				}
				return nil
			})
			tr.Close()
		}
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	for _, np := range []int{1, 2, 3, 6, 8} {
		tr := runComms(t, np, func(c *Comm) error {
			vals := []float64{float64(c.Rank() + 1), float64(c.Rank() * 2)}
			r, err := c.reduce(0, vals, SumF64)
			if err != nil {
				return err
			}
			wantSum := float64(np*(np+1)) / 2
			if c.Rank() == 0 {
				if r[0] != wantSum {
					t.Errorf("np=%d: reduce sum = %v want %v", np, r[0], wantSum)
				}
			} else if r != nil {
				t.Errorf("non-root got reduction %v", r)
			}
			ar, err := c.AllreduceF64([]float64{float64(c.Rank())}, MaxF64)
			if err != nil {
				return err
			}
			if ar[0] != float64(np-1) {
				t.Errorf("np=%d rank=%d: allreduce max = %v", np, c.Rank(), ar[0])
			}
			ai, err := c.AllreduceInts([]int{c.Rank() + 1}, SumInt)
			if err != nil {
				return err
			}
			if ai[0] != int(wantSum) {
				t.Errorf("allreduce int sum = %d want %d", ai[0], int(wantSum))
			}
			return nil
		})
		tr.Close()
	}
}

func TestReduceNonRoot(t *testing.T) {
	tr := runComms(t, 4, func(c *Comm) error {
		r, err := c.reduce(2, []float64{float64(c.Rank())}, SumF64)
		if err != nil {
			return err
		}
		if c.Rank() == 2 {
			if r[0] != 6 {
				t.Errorf("reduce to root 2: %v", r)
			}
		} else if r != nil {
			t.Errorf("rank %d should get nil", c.Rank())
		}
		return nil
	})
	tr.Close()
}

func TestGatherAllgather(t *testing.T) {
	for _, np := range []int{1, 3, 5} {
		tr := runComms(t, np, func(c *Comm) error {
			payload := EncodeInts([]int{c.Rank() * 3})
			parts, err := c.Gather(0, payload)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				for r := 0; r < np; r++ {
					if got := DecodeInts(parts[r])[0]; got != r*3 {
						t.Errorf("gather[%d] = %d", r, got)
					}
				}
			}
			all, err := c.AllgatherInts([]int{c.Rank(), c.Rank() + 100})
			if err != nil {
				return err
			}
			for r := 0; r < np; r++ {
				if all[r][0] != r || all[r][1] != r+100 {
					t.Errorf("allgather[%d] = %v", r, all[r])
				}
			}
			return nil
		})
		tr.Close()
	}
}

// TestAllgatherRejectsBadFrames plays rank 0 of three and broadcasts a
// crafted frame in place of the gathered one: ranks 1 and 2 each return
// an error naming themselves, and neither panics.
func TestAllgatherRejectsBadFrames(t *testing.T) {
	frame := func(body int, lens ...uint32) []byte {
		f := make([]byte, 4*len(lens)+body)
		for i, n := range lens {
			PutUint32(f, 4*i, n)
		}
		return f
	}
	for _, tc := range []struct {
		name, want string
		frame      []byte
	}{
		{"short", "shorter than its 3 lengths", frame(0, 8, 8)},
		{"overrun", "lengths sum to 24 bytes, frame carries 16", frame(16, 8, 8, 8)},
		{"trailing", "lengths sum to 24 bytes, frame carries 32", frame(32, 8, 8, 8)},
		{"ragged", "part 0 has 5 bytes", frame(16, 5, 3, 8)},
		{"huge", "part 1 has 4294967295 bytes", frame(16, 8, 1<<32-1, 8)},
	} {
		tr := NewChanTransport(3)
		for rank := 1; rank < 3; rank++ {
			// A fresh Comm's gather takes the first collective tag and
			// its broadcast the second.
			if err := tr.Endpoint(0).Send(rank, TagCollBase+2, tc.frame); err != nil {
				t.Fatal(err)
			}
			_, err := NewComm(tr.Endpoint(rank)).AllgatherInts([]int{rank})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("rank %d: ", rank)) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: rank %d: err = %v, want %q", tc.name, rank, err, tc.want)
			}
		}
		tr.Close()
	}
}

// FuzzAllgatherFrame: decoding any frame either fails with an error or
// yields np int parts that encode back to exactly that frame.
func FuzzAllgatherFrame(f *testing.F) {
	for _, np := range []int{1, 3, 5} {
		parts := make([][]byte, np)
		for r := range parts {
			parts[r] = EncodeInts(make([]int, r))
		}
		f.Add(encodeAllgather(parts), uint8(np-1))
	}
	f.Add([]byte{8, 0, 0, 0, 1, 2, 3}, uint8(0))
	f.Fuzz(func(t *testing.T, frame []byte, n uint8) {
		np := int(n)%16 + 1
		parts, err := decodeAllgatherInts(0, np, frame)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "msg: allgather: rank 0: ") {
				t.Fatalf("error %q does not name the rank", err)
			}
			return
		}
		enc := make([][]byte, len(parts))
		for i, p := range parts {
			enc[i] = EncodeInts(p)
		}
		if len(parts) != np || !bytes.Equal(encodeAllgather(enc), frame) {
			t.Fatalf("np=%d: frame %x decoded to %v", np, frame, parts)
		}
	})
}

func TestAlltoallv(t *testing.T) {
	for _, np := range []int{1, 2, 4, 5} {
		tr := runComms(t, np, func(c *Comm) error {
			send := make([][]byte, np)
			for to := 0; to < np; to++ {
				// send to even-distance peers only; nil elsewhere
				if (to-c.Rank()+np)%np%2 == 0 {
					send[to] = EncodeInts([]int{c.Rank()*100 + to})
				}
			}
			recv, err := c.Alltoallv(send)
			if err != nil {
				return err
			}
			for from := 0; from < np; from++ {
				expect := (c.Rank()-from+np)%np%2 == 0
				if expect {
					if recv[from] == nil {
						t.Errorf("np=%d rank %d missing msg from %d", np, c.Rank(), from)
						continue
					}
					if got := DecodeInts(recv[from])[0]; got != from*100+c.Rank() {
						t.Errorf("alltoallv payload wrong: %d", got)
					}
				} else if recv[from] != nil {
					t.Errorf("unexpected msg from %d", from)
				}
			}
			return nil
		})
		tr.Close()
	}
}

// TestAlltoallvDifferential pushes one holey send matrix (nil, empty
// and non-empty cells, a self-transfer) through the ring on fresh
// transports of both kinds: on each, every rank receives exactly its
// column of the matrix, and the messages are the size allgather's
// 2(np-1) plus one per non-nil remote cell.
func TestAlltoallvDifferential(t *testing.T) {
	cell := func(from, to, np int) []byte {
		switch (from*3 + to) % 4 {
		case 0:
			return nil
		case 1:
			return []byte{}
		}
		return EncodeInts([]int{from, to, from*np + to})[:8+(from+to)%9]
	}
	for _, np := range []int{1, 2, 4, 5} {
		want := int64(2 * (np - 1))
		for from := 0; from < np; from++ {
			for to := 0; to < np; to++ {
				if from != to && cell(from, to, np) != nil {
					want++
				}
			}
		}
		for name, tr := range transports(t, np) {
			runCommsOn(t, tr, func(c *Comm) error {
				rank := c.Rank()
				send := make([][]byte, np)
				for p := range send {
					send[p] = cell(rank, p, np)
				}
				recv, err := c.Alltoallv(send)
				if err != nil {
					return err
				}
				for from, got := range recv {
					if want := cell(from, rank, np); (got == nil) != (want == nil) || !bytes.Equal(got, want) {
						t.Errorf("%s np=%d rank %d: from %d = %v, want %v", name, np, rank, from, got, want)
					}
				}
				return nil
			})
			if got := tr.Stats().Snapshot().TotalMsgs(); got != want {
				t.Errorf("%s np=%d: %d messages, want %d", name, np, got, want)
			}
			tr.Close()
		}
	}
}

func TestWireGauge(t *testing.T) {
	s := NewStats(3)
	if s.PeakWireBytes() != 0 {
		t.Fatal("fresh stats should have zero peak")
	}
	s.WireAcquire(0, 100)
	s.WireAcquire(0, 50) // rank 0 resident 150
	s.WireAcquire(1, 120)
	s.WireRelease(0, 100) // rank 0 resident 50, peak stays 150
	s.WireAcquire(0, 40)  // resident 90 < peak
	if got := s.PeakWireBytesRank(0); got != 150 {
		t.Errorf("rank 0 peak = %d, want 150", got)
	}
	if got := s.PeakWireBytes(); got != 150 {
		t.Errorf("global peak = %d, want 150", got)
	}
	// ResetWirePeak rewinds to current residency (90 on rank 0, 120 on 1)
	// without touching traffic counters.
	s.OnSend(0, 1, 8)
	s.ResetWirePeak()
	if got := s.PeakWireBytesRank(0); got != 90 {
		t.Errorf("after reset, rank 0 peak = %d, want current residency 90", got)
	}
	if got := s.PeakWireBytes(); got != 120 {
		t.Errorf("after reset, global peak = %d, want 120", got)
	}
	if sn := s.Snapshot(); sn.TotalBytes() != 8 {
		t.Errorf("ResetWirePeak disturbed traffic counters: %d bytes", sn.TotalBytes())
	}
	s.WireAcquire(0, 100) // resident 190 -> new peak
	if got := s.PeakWireBytesRank(0); got != 190 {
		t.Errorf("peak after re-acquire = %d, want 190", got)
	}
}

// TestAllreduceLengthMismatch: ranks that disagree on the vector length
// get an error from the collective at the root, never a panic.
func TestAllreduceLengthMismatch(t *testing.T) {
	tr := NewChanTransport(3)
	defer tr.Close()
	errs := runWindowRanks(tr, RetryPolicy{Timeout: 50 * time.Millisecond}, func(c *Comm) error {
		vals := []float64{1, 2}
		if c.Rank() == 2 {
			vals = append(vals, 3)
		}
		_, err := c.AllreduceF64(vals, SumF64)
		return err
	})
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "length mismatch") {
		t.Errorf("root: err = %v, want the reduce length mismatch", errs[0])
	}
}

func TestCollectivesOverTCP(t *testing.T) {
	tcp, err := NewTCPTransport(4)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	runCommsOn(t, tcp, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		out, err := c.AllreduceF64([]float64{1}, SumF64)
		if err != nil {
			return err
		}
		if out[0] != 4 {
			t.Errorf("allreduce over tcp = %v", out[0])
		}
		bi, err := c.BcastInts(3, []int{42, 43})
		if err != nil {
			return err
		}
		if bi[0] != 42 || bi[1] != 43 {
			t.Errorf("bcast ints over tcp = %v", bi)
		}
		return nil
	})
}

func TestBcastLargePayload(t *testing.T) {
	tr := runComms(t, 5, func(c *Comm) error {
		var buf []byte
		if c.Rank() == 2 {
			vals := make([]float64, 1<<15)
			for i := range vals {
				vals[i] = float64(i)
			}
			buf = EncodeFloat64s(vals)
		}
		out, err := c.Bcast(2, buf)
		if err != nil {
			return err
		}
		vals := DecodeFloat64s(out)
		if len(vals) != 1<<15 || vals[100] != 100 || vals[1<<15-1] != float64(1<<15-1) {
			t.Errorf("rank %d: large bcast corrupted", c.Rank())
		}
		return nil
	})
	tr.Close()
}

// TestCollectiveTagNeverWraps is the regression test for the old
// nextTag() fold `TagCollBase + seq%(1<<20)`: after 2^20 collectives the
// tag sequence restarted, so a stale message still sitting in a mailbox
// under an early tag could be consumed by a much later collective.  The
// fixed sequence is monotonic and unbounded, so a poison message planted
// at the tag the old scheme would reuse must stay untouched.
func TestCollectiveTagNeverWraps(t *testing.T) {
	const oldWrap = 1 << 20
	tr := NewChanTransport(2)
	defer tr.Close()
	// Poison rank 1's mailbox at the tag the old folding scheme would
	// produce for the next collective (seq wraps to 0 -> TagCollBase+0).
	poisonTag := TagCollBase
	if err := tr.Endpoint(0).Send(1, poisonTag, EncodeInts([]int{-666})); err != nil {
		t.Fatal(err)
	}
	runCommsOn(t, tr, func(c *Comm) error {
		c.seq = oldWrap - 1 // next collective crosses the old wrap boundary
		var buf []byte
		if c.Rank() == 0 {
			buf = EncodeInts([]int{12345})
		}
		out, err := c.Bcast(0, buf)
		if err != nil {
			return err
		}
		if got := DecodeInts(out)[0]; got != 12345 {
			t.Errorf("rank %d: bcast across old wrap boundary got %d, want 12345", c.Rank(), got)
		}
		return nil
	})
	// The poison message must still be pending — the collective never
	// reused its tag.
	p, err := tr.Endpoint(1).RecvTimeout(0, poisonTag, time.Second)
	if err != nil || DecodeInts(p.Data)[0] != -666 {
		t.Fatalf("poison message was consumed by a wrapped collective tag: packet %+v err %v", p, err)
	}
}

// TestHighCollectiveTagsOverTCP drives tags far past 32 bits through the
// TCP framing (the wire tag is 8 bytes), as a long-running program's
// monotonic collective sequence will.
func TestHighCollectiveTagsOverTCP(t *testing.T) {
	tcp, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	runCommsOn(t, tcp, func(c *Comm) error {
		c.seq = 1 << 33 // tag = TagCollBase + 2^33 + ... > 2^32
		if err := c.Barrier(); err != nil {
			return err
		}
		var buf []byte
		if c.Rank() == 1 {
			buf = EncodeInts([]int{777})
		}
		out, err := c.Bcast(1, buf)
		if err != nil {
			return err
		}
		if got := DecodeInts(out)[0]; got != 777 {
			t.Errorf("rank %d: high-tag bcast got %d", c.Rank(), got)
		}
		return nil
	})
}
