package msg

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// withWindowTransports runs f as a subtest over both built-in transports,
// so every window behaviour is exercised on the shared-memory fast path
// (chan) and the framed wire path (tcp).
func withWindowTransports(t *testing.T, np int, f func(t *testing.T, tr Transport)) {
	t.Run("chan", func(t *testing.T) {
		tr := NewChanTransport(np)
		defer tr.Close()
		f(t, tr)
	})
	t.Run("tcp", func(t *testing.T) {
		tr, err := NewTCPTransport(np)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		f(t, tr)
	})
}

// runWindowRanks is runCommsOn without the fatal-on-error policy: fault
// tests need the per-rank errors back to assert on their shape.
func runWindowRanks(tr Transport, pol RetryPolicy, body func(c *Comm) error) []error {
	errs := make([]error, tr.NP())
	var wg sync.WaitGroup
	for r := 0; r < tr.NP(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := NewComm(tr.Endpoint(r))
			c.SetRetry(pol)
			errs[r] = body(c)
		}(r)
	}
	wg.Wait()
	return errs
}

func TestWindowRectRoundTrip(t *testing.T) {
	src := make([]float64, 48)
	for i := range src {
		src[i] = float64(i)
	}
	cases := []struct {
		name string
		r    Rect
	}{
		{"run", RectRun(5, 7)},
		{"strided", Rect{Off: 2, Dims: []RectDim{{Stride: 3, Count: 5}}}},
		{"2d", Rect{Off: 1, Dims: []RectDim{{Stride: 1, Count: 4}, {Stride: 8, Count: 5}}}},
		{"2d-strided", Rect{Off: 0, Dims: []RectDim{{Stride: 2, Count: 3}, {Stride: 12, Count: 4}}}},
		{"scalar", Rect{Off: 47}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wire := PackRect(nil, src, tc.r)
			if len(wire) != 8*tc.r.Count() {
				t.Fatalf("packed %d bytes, want %d", len(wire), 8*tc.r.Count())
			}
			// Apply into a same-shaped region of a fresh slice and compare
			// element by element through the rect enumeration.
			viaWire := make([]float64, len(src))
			if err := ApplyRect(viaWire, tc.r, wire); err != nil {
				t.Fatal(err)
			}
			viaCopy := make([]float64, len(src))
			CopyRect(viaCopy, tc.r, src, tc.r)
			touched := 0
			c, stride, count := tc.r.runs()
			for more := true; more; more = c.next() {
				for i := 0; i < count; i++ {
					at := c.off + i*stride
					if viaWire[at] != src[at] || viaCopy[at] != src[at] {
						t.Fatalf("element %d: wire=%v copy=%v want %v", at, viaWire[at], viaCopy[at], src[at])
					}
					touched++
				}
			}
			if touched != tc.r.Count() {
				t.Fatalf("enumerated %d elements, Count()=%d", touched, tc.r.Count())
			}
			// Untouched elements must stay zero.
			zeros := 0
			for _, v := range viaWire {
				if v == 0 {
					zeros++
				}
			}
			if zeros < len(src)-touched {
				t.Fatalf("apply touched elements outside the rect (%d zeros, want >= %d)", zeros, len(src)-touched)
			}
		})
	}
}

func TestWindowRectValidate(t *testing.T) {
	if err := RectRun(0, 8).validate(8); err != nil {
		t.Fatalf("in-bounds rect rejected: %v", err)
	}
	if err := RectRun(1, 8).validate(8); err == nil {
		t.Fatal("overrunning rect accepted")
	}
	if err := RectRun(-1, 2).validate(8); err == nil {
		t.Fatal("negative-offset rect accepted")
	}
	if err := (Rect{Off: 0, Dims: []RectDim{{Stride: 1, Count: 0}}}).validate(8); err == nil {
		t.Fatal("zero-count rect accepted")
	}
	// A put whose payload disagrees with the rect must be rejected.
	if err := ApplyRect(make([]float64, 8), RectRun(0, 4), make([]byte, 24)); err == nil {
		t.Fatal("short payload accepted")
	}
}

// FuzzRectValidate: a rect that arrives from a peer may carry any
// offset, strides and counts.  validate never panics on one, and once it
// accepts a rect against a storage of n elements, every element the run
// cursor visits lies in [0, n) — however the strides and counts overflow.
func FuzzRectValidate(f *testing.F) {
	seed := func(r Rect) {
		var sc [2 * inlineDims]int64
		for k, d := range r.Dims {
			sc[2*k], sc[2*k+1] = int64(d.Stride), int64(d.Count)
		}
		f.Add(int64(r.Off), uint8(len(r.Dims)), sc[0], sc[1], sc[2], sc[3], sc[4], sc[5], sc[6], sc[7])
	}
	seed(RectRun(3, 5))
	seed(allocSrc)
	seed(Rect{Off: 7})
	seed(Rect{Off: 9, Dims: []RectDim{{-2, 3}, {8, 2}}})
	seed(Rect{Off: 1, Dims: []RectDim{{1 << 62, 5}}})
	seed(Rect{Off: 1 << 62, Dims: []RectDim{{1 << 62, 2}, {1 << 62, 2}}})
	f.Fuzz(func(t *testing.T, off int64, nd uint8, s0, c0, s1, c1, s2, c2, s3, c3 int64) {
		sc := [...]int64{s0, c0, s1, c1, s2, c2, s3, c3}
		r := Rect{Off: int(off), Dims: make([]RectDim, int(nd)%(inlineDims+1))}
		for k := range r.Dims {
			r.Dims[k] = RectDim{Stride: int(sc[2*k]), Count: int(sc[2*k+1])}
		}
		const n = 64
		if r.validate(n) != nil {
			return
		}
		elems := 1
		for _, d := range r.Dims {
			if d.Count > 4*n/elems {
				return // a stride-0 repeat: in bounds, too long to walk here
			}
			elems *= d.Count
		}
		c, stride, count := r.runs()
		for more := true; more; more = c.next() {
			for i := 0; i < count; i++ {
				if at := c.off + i*stride; at < 0 || at >= n {
					t.Fatalf("validated rect %+v addresses element %d of %d", r, at, n)
				}
			}
		}
	})
}

// TestWindowPutAsyncRing drives the counted-stream discipline on both
// transports: every rank puts a block into its successor's storage and
// awaits the matching put from its predecessor.  The same traffic must
// produce identical Stats on both.
func TestWindowPutAsyncRing(t *testing.T) {
	const np, n = 4, 8
	snapshots := map[string]Snapshot{}
	withWindowTransports(t, np, func(t *testing.T, tr Transport) {
		win := NewWindow(np, "ring", tr.Stats(), tr.Cost())
		runCommsOn(t, tr, func(c *Comm) error {
			r := c.Rank()
			data := make([]float64, n)
			for i := range data {
				data[i] = float64(100*r + i)
			}
			win.Register(r, data)
			if err := win.Settle(c); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			next, prev := (r+1)%np, (r+np-1)%np
			// Lower half of my storage -> upper half of next's.
			if err := win.PutAsync(c, next, 1, RectRun(0, n/2), RectRun(n/2, n/2)); err != nil {
				return err
			}
			if err := win.AwaitPut(c, prev, 1, RectRun(n/2, n/2)); err != nil {
				return err
			}
			for i := 0; i < n/2; i++ {
				if want := float64(100*prev + i); data[n/2+i] != want {
					t.Errorf("rank %d element %d: got %v, want %v", r, n/2+i, data[n/2+i], want)
				}
			}
			return c.Barrier()
		})
		// The run is over, so the whole-run totals (barriers plus puts) are
		// deterministic and directly comparable across transports.
		snapshots[t.Name()] = tr.Stats().Snapshot()
	})
	ch, ok1 := snapshots["TestWindowPutAsyncRing/chan"]
	tc, ok2 := snapshots["TestWindowPutAsyncRing/tcp"]
	if !ok1 || !ok2 {
		t.Fatalf("missing snapshots: %v", snapshots)
	}
	// One data message of 8*n/2 bytes per rank, plus identical barrier
	// traffic: both transports must account the puts alike.
	if ch.TotalDataMsgs() != tc.TotalDataMsgs() || ch.TotalBytes() != tc.TotalBytes() {
		t.Errorf("stats parity: chan %d msgs/%d bytes, tcp %d msgs/%d bytes",
			ch.TotalDataMsgs(), ch.TotalBytes(), tc.TotalDataMsgs(), tc.TotalBytes())
	}
	if ch.TotalDataMsgs() < np || ch.TotalBytes() < int64(np*8*n/2) {
		t.Errorf("chan put traffic unaccounted: %d msgs / %d bytes", ch.TotalDataMsgs(), ch.TotalBytes())
	}
}

// TestWindowPutAsyncStrided puts a strided 2-D sub-block (a column strip,
// the B_BLOCK ghost shape) and checks only the rect's elements change.
func TestWindowPutAsyncStrided(t *testing.T) {
	const np, rows, cols = 2, 5, 6
	withWindowTransports(t, np, func(t *testing.T, tr Transport) {
		win := NewWindow(np, "strided", tr.Stats(), tr.Cost())
		runCommsOn(t, tr, func(c *Comm) error {
			r := c.Rank()
			data := make([]float64, rows*cols)
			for i := range data {
				data[i] = float64(1000*r + i)
			}
			win.Register(r, data)
			if err := c.Barrier(); err != nil {
				return err
			}
			// Column 1 of rank 0 -> column 4 of rank 1 (row-major, stride
			// cols between consecutive column elements).
			srcCol := Rect{Off: 1, Dims: []RectDim{{Stride: cols, Count: rows}}}
			dstCol := Rect{Off: 4, Dims: []RectDim{{Stride: cols, Count: rows}}}
			if r == 0 {
				if err := win.PutAsync(c, 1, 2, srcCol, dstCol); err != nil {
					return err
				}
			} else {
				if err := win.AwaitPut(c, 0, 2, dstCol); err != nil {
					return err
				}
				for i := 0; i < rows*cols; i++ {
					want := float64(1000 + i)
					if i%cols == 4 {
						want = float64(i - 3) // rank 0's column 1, same row
					}
					if data[i] != want {
						t.Errorf("element %d: got %v, want %v", i, data[i], want)
					}
				}
			}
			return c.Barrier()
		})
	})
}

// TestWindowRevokedEpochAborts: window operations through a View whose
// liveness check fails must abort with the checker's error, wrapped with
// the window name and peer rank.
func TestWindowRevokedEpochAborts(t *testing.T) {
	tr := NewChanTransport(2)
	defer tr.Close()
	win := NewWindow(2, "revoked", tr.Stats(), tr.Cost())
	win.Register(0, make([]float64, 8))
	win.Register(1, make([]float64, 8))
	revoked := errors.New("membership epoch revoked")
	v := NewView(tr.Endpoint(0), 1, []int{0, 1}, func() error { return revoked })
	c := NewComm(v)
	c.SetRetry(RetryPolicy{Timeout: 50 * time.Millisecond, Retries: 1})

	err := win.PutAsync(c, 1, 1, RectRun(0, 2), RectRun(0, 2))
	if !errors.Is(err, revoked) {
		t.Fatalf("put on revoked epoch = %v, want the checker's error", err)
	}
	if !strings.Contains(err.Error(), "window revoked") || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("put error %q does not name the window and rank", err)
	}
	if err := win.AwaitPut(c, 1, 1, RectRun(0, 2)); !errors.Is(err, revoked) {
		t.Fatalf("await on revoked epoch = %v, want the checker's error", err)
	}
	if err := win.Pull(c, 1, 1, []Share{{Win: win, Src: RectRun(0, 2), Dst: make([]float64, 2), Dr: RectRun(0, 2)}}); !errors.Is(err, revoked) {
		t.Fatalf("pull on revoked epoch = %v, want the checker's error", err)
	}
}

// TestWindowStaleEpochTagNeverMatches: a put sent under epoch 0 must
// not satisfy an await posted under epoch 1 — the fold keeps the tag
// spaces disjoint, so the stale put rots in the mailbox and the await
// times out instead of consuming wrong-epoch traffic.
func TestWindowStaleEpochTagNeverMatches(t *testing.T) {
	tr := NewChanTransport(2)
	defer tr.Close()
	win := NewWindow(2, "stale", tr.Stats(), tr.Cost())
	store0 := []float64{1, 2, 3, 4}
	store1 := make([]float64, 4)
	win.Register(0, store0)
	win.Register(1, store1)

	// Rank 0 puts under epoch 0 (bare endpoint: unfolded tags).
	c0 := NewComm(tr.Endpoint(0))
	if err := win.PutAsync(c0, 1, 1, RectRun(0, 2), RectRun(0, 2)); err != nil {
		t.Fatal(err)
	}
	// Rank 1 awaits under epoch 1: the epoch-0 put must not match.
	v1 := NewView(tr.Endpoint(1), 1, []int{0, 1}, nil)
	c1 := NewComm(v1)
	c1.SetRetry(RetryPolicy{Timeout: 30 * time.Millisecond, Retries: 1})
	err := win.AwaitPut(c1, 0, 1, RectRun(0, 2))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("await across epochs = %v, want ErrTimeout (stale tag must not match)", err)
	}
	// The epoch-0 put is still there for an epoch-0 await.
	c1e0 := NewComm(tr.Endpoint(1))
	if err := win.AwaitPut(c1e0, 0, 1, RectRun(0, 2)); err != nil {
		t.Fatalf("same-epoch await after cross-epoch miss: %v", err)
	}
	if store1[0] != 1 || store1[1] != 2 {
		t.Fatalf("put data not applied: %v", store1[:2])
	}
}

// faultMatrixSetup builds the layered transport for a window fault case:
// base transport per mode, fault injector from the plan, and an integrity
// layer outside the injector when the plan corrupts frames (mirroring
// apps.assembleTransport).
func faultMatrixSetup(t *testing.T, tcp bool, plan string) (Transport, func()) {
	t.Helper()
	p, err := ParseFaultPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	var base Transport
	if tcp {
		base, err = NewTCPTransport(2)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		base = NewChanTransport(2)
	}
	var tr Transport = NewFaultTransport(base, p)
	if p.HasKind(FaultCorrupt) {
		tr = NewIntegrityTransport(tr)
	}
	return tr, func() { tr.Close() }
}

// windowFaultCfg keeps fault-matrix cases fast: short deadlines, a couple
// of escalating retries.
var windowFaultCfg = RetryPolicy{Timeout: 25 * time.Millisecond, Retries: 3}

// windowFaultBody is the canonical two-rank put/await exchange used by
// the fault-matrix cases.  The leading barrier proves win=1 rules leave
// collective traffic alone — an unscoped rule would fire on the barrier
// and desynchronize the schedule.
func windowFaultBody(win *Window) func(c *Comm) error {
	return func(c *Comm) error {
		r := c.Rank()
		data := make([]float64, 8)
		for i := range data {
			data[i] = float64(10*r + i)
		}
		win.Register(r, data)
		if err := c.Barrier(); err != nil {
			return fmt.Errorf("pre-exchange barrier: %w", err)
		}
		if r == 0 {
			return win.PutAsync(c, 1, 1, RectRun(0, 4), RectRun(4, 4))
		}
		if err := win.AwaitPut(c, 0, 1, RectRun(4, 4)); err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			if data[4+i] != float64(i) {
				return fmt.Errorf("element %d: got %v, want %v", 4+i, data[4+i], float64(i))
			}
		}
		return nil
	}
}

// TestFaultMatrixWindowSendErr: a persistent injected send fault on the
// put's frame exhausts the sender's retries with a wrapped error
// naming the window and peer; the starved awaiter times out.  No panics,
// no hangs, on either transport.
func TestFaultMatrixWindowSendErr(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		name := map[bool]string{false: "chan", true: "tcp"}[tcp]
		t.Run(name, func(t *testing.T) {
			tr, closeTr := faultMatrixSetup(t, tcp, "senderr,rank=0,win=1")
			defer closeTr()
			win := NewWindow(2, "senderr", tr.Stats(), tr.Cost())
			errs := runWindowRanks(tr, windowFaultCfg, windowFaultBody(win))
			if !errors.Is(errs[0], ErrInjected) {
				t.Errorf("rank 0 = %v, want wrapped ErrInjected", errs[0])
			}
			for _, frag := range []string{"window senderr", "rank 1"} {
				if errs[0] == nil || !strings.Contains(errs[0].Error(), frag) {
					t.Errorf("rank 0 error %q does not contain %q", errs[0], frag)
				}
			}
			if !errors.Is(errs[1], ErrTimeout) {
				t.Errorf("rank 1 = %v, want wrapped ErrTimeout", errs[1])
			}
		})
	}
}

// TestFaultMatrixWindowDrop: one silently dropped put leaves the sender
// successful and the awaiter timing out with an error naming the window —
// the lost-packet asymmetry, scoped by win=1 so the barrier is untouched.
func TestFaultMatrixWindowDrop(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		name := map[bool]string{false: "chan", true: "tcp"}[tcp]
		t.Run(name, func(t *testing.T) {
			tr, closeTr := faultMatrixSetup(t, tcp, "drop,rank=0,count=1,win=1")
			defer closeTr()
			win := NewWindow(2, "dropwin", tr.Stats(), tr.Cost())
			errs := runWindowRanks(tr, windowFaultCfg, windowFaultBody(win))
			if errs[0] != nil {
				t.Errorf("rank 0 = %v, want nil (drop is silent at the sender)", errs[0])
			}
			if !errors.Is(errs[1], ErrTimeout) {
				t.Errorf("rank 1 = %v, want wrapped ErrTimeout", errs[1])
			}
			if errs[1] == nil || !strings.Contains(errs[1].Error(), "window dropwin") {
				t.Errorf("rank 1 error %q does not name the window", errs[1])
			}
		})
	}
}

// TestFaultMatrixWindowDelay: a delayed put completion heals under the
// escalating receive deadline — the await retries until the late frame
// lands, and the data is intact.
func TestFaultMatrixWindowDelay(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		name := map[bool]string{false: "chan", true: "tcp"}[tcp]
		t.Run(name, func(t *testing.T) {
			tr, closeTr := faultMatrixSetup(t, tcp, "delay,rank=0,delay=40ms,count=1,win=1")
			defer closeTr()
			win := NewWindow(2, "delaywin", tr.Stats(), tr.Cost())
			errs := runWindowRanks(tr, windowFaultCfg, windowFaultBody(win))
			for r, err := range errs {
				if err != nil {
					t.Errorf("rank %d = %v, want heal via retry", r, err)
				}
			}
		})
	}
}

// TestFaultMatrixWindowBitflip: wire corruption of window traffic under
// an integrity layer surfaces ErrIntegrity at the awaiter instead of
// silently corrupt data.  A put travels as its packed, CRC-trailed
// payload on both transports, so the corrupted frame is the payload.
func TestFaultMatrixWindowBitflip(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		name := map[bool]string{false: "chan", true: "tcp"}[tcp]
		t.Run(name, func(t *testing.T) {
			tr, closeTr := faultMatrixSetup(t, tcp, "bitflip,rank=0,count=1,win=1")
			defer closeTr()
			win := NewWindow(2, "flipwin", tr.Stats(), tr.Cost())
			errs := runWindowRanks(tr, windowFaultCfg, windowFaultBody(win))
			if errs[0] != nil {
				t.Errorf("rank 0 = %v, want nil (corruption is invisible to the sender)", errs[0])
			}
			if !errors.Is(errs[1], ErrIntegrity) {
				t.Errorf("rank 1 = %v, want wrapped ErrIntegrity", errs[1])
			}
			if errs[1] == nil || !strings.Contains(errs[1].Error(), "window flipwin") {
				t.Errorf("rank 1 error %q does not name the window", errs[1])
			}
		})
	}
}

// TestWindowOfferPullRing drives the offer/pull discipline on both
// transports with a cost model attached: every rank offers a strided
// 2-D block of its registered storage to its successor as two shares of
// one window, which the successor pulls into private storage no window
// knows about.  Data, payload bytes and data messages must be identical
// on the token path (chan) and the framed path (tcp).  The token path
// also returns one zero-byte done token per pull — per window, not per
// share — so it sends np more messages and every virtual clock runs
// exactly one send overhead ahead of the framed path's; nothing is ever
// resident on its wire.
func TestWindowOfferPullRing(t *testing.T) {
	const np, rows, cols = 4, 6, 5
	// The block's first two columns and its last three.
	src := [2]Rect{
		{Off: 1, Dims: []RectDim{{Stride: 1, Count: 3}, {Stride: rows, Count: 2}}},
		{Off: 1 + 2*rows, Dims: []RectDim{{Stride: 1, Count: 3}, {Stride: rows, Count: cols - 2}}},
	}
	dst := [2]Rect{
		{Off: 2, Dims: []RectDim{{Stride: 2, Count: 3}, {Stride: 8, Count: 2}}},
		{Off: 2 + 2*8, Dims: []RectDim{{Stride: 2, Count: 3}, {Stride: 8, Count: cols - 2}}},
	}
	type outcome struct {
		snap   Snapshot
		clocks [np]float64
		got    [np][]float64
	}
	results := map[string]*outcome{}
	for _, name := range []string{"chan", "tcp"} {
		cost := NewCostModel(np, 3e-6, 2e-9)
		var tr Transport
		if name == "tcp" {
			tcp, err := NewTCPTransport(np, WithCost(cost))
			if err != nil {
				t.Fatal(err)
			}
			tr = tcp
		} else {
			tr = NewChanTransport(np, WithCost(cost))
		}
		out := &outcome{}
		win := NewWindow(np, "offer", tr.Stats(), tr.Cost())
		runCommsOn(t, tr, func(c *Comm) error {
			r := c.Rank()
			data := make([]float64, rows*cols)
			for i := range data {
				data[i] = float64(1000*r + i)
			}
			win.Register(r, data)
			if err := win.Settle(c); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			next, prev := (r+1)%np, (r+np-1)%np
			if err := win.Offer(c, next, 7, []Share{{Win: win, Src: src[0]}, {Win: win, Src: src[1]}}); err != nil {
				return err
			}
			private := make([]float64, 8*cols)
			pull := []Share{{Win: win, Src: src[0], Dst: private, Dr: dst[0]}, {Win: win, Src: src[1], Dst: private, Dr: dst[1]}}
			if err := win.Pull(c, prev, 7, pull); err != nil {
				return err
			}
			for j := 0; j < cols; j++ {
				for i := 0; i < 3; i++ {
					want := float64(1000*prev + 1 + i + rows*j)
					if got := private[2+2*i+8*j]; got != want {
						t.Errorf("%s rank %d: pulled (%d,%d) = %v, want %v", name, r, i, j, got, want)
					}
				}
			}
			out.got[r] = private
			// Hold the offered storage still until every peer has pulled.
			return c.Barrier()
		})
		out.snap = tr.Stats().Snapshot()
		for r := 0; r < np; r++ {
			out.clocks[r] = cost.Clock(r)
		}
		if name == "chan" {
			if peak := tr.Stats().PeakWireBytes(); peak != 0 {
				t.Errorf("chan: peak wire bytes %d, want 0 (a token path offer is never resident)", peak)
			}
		}
		tr.Close()
		results[name] = out
	}
	ch, tc := results["chan"], results["tcp"]
	if ch.snap.TotalDataMsgs() != tc.snap.TotalDataMsgs() || ch.snap.TotalBytes() != tc.snap.TotalBytes() ||
		ch.snap.TotalMsgs() != tc.snap.TotalMsgs()+np {
		t.Errorf("stats parity: chan %d data msgs/%d msgs/%d bytes, tcp %d/%d/%d (chan adds %d done tokens)",
			ch.snap.TotalDataMsgs(), ch.snap.TotalMsgs(), ch.snap.TotalBytes(),
			tc.snap.TotalDataMsgs(), tc.snap.TotalMsgs(), tc.snap.TotalBytes(), np)
	}
	if want := int64(np * 8 * 3 * cols); ch.snap.TotalBytes() != want {
		t.Errorf("offer traffic: %d bytes, want %d", ch.snap.TotalBytes(), want)
	}
	for r := range ch.clocks {
		if d := ch.clocks[r] - tc.clocks[r]; math.Abs(d-1.5e-6) > 1e-15 {
			t.Errorf("rank %d: chan clock %v runs %v ahead of tcp's %v, want one send overhead (1.5e-6)", r, ch.clocks[r], d, tc.clocks[r])
		}
	}
	for r := 0; r < np; r++ {
		for i := range ch.got[r] {
			if ch.got[r][i] != tc.got[r][i] {
				t.Fatalf("rank %d element %d: chan %v, tcp %v", r, i, ch.got[r][i], tc.got[r][i])
			}
		}
	}
}

// warmWindowPair returns a two-rank shared-memory window with a cost
// model attached, both Comms driven from the calling goroutine (channel
// sends never block, so one goroutine can play both ranks — which is what
// lets testing.AllocsPerRun see only the window's own allocations).
func warmWindowPair(t *testing.T) (win *Window, c0, c1 *Comm) {
	t.Helper()
	tr := NewChanTransport(2, WithCost(NewCostModel(2, 1e-6, 1e-9)))
	t.Cleanup(func() { tr.Close() })
	win = NewWindow(2, "warm", tr.Stats(), tr.Cost())
	win.Register(0, make([]float64, 4096))
	win.Register(1, make([]float64, 4096))
	return win, NewComm(tr.Endpoint(0)), NewComm(tr.Endpoint(1))
}

// A 4-D rect pair with different run structure on the two sides, so the
// copy walks both odometers: the deepest rank the inline cursor covers.
var (
	allocSrc = Rect{Off: 3, Dims: []RectDim{{1, 4}, {8, 3}, {64, 2}, {512, 2}}}
	allocDst = Rect{Off: 5, Dims: []RectDim{{2, 4}, {16, 3}, {128, 2}, {1024, 2}}}
)

func TestWindowPutAllocatesNothing(t *testing.T) {
	win, c0, c1 := warmWindowPair(t)
	put := func() {
		if err := win.PutAsync(c0, 1, 1, allocSrc, allocDst); err != nil {
			t.Fatal(err)
		}
		if err := win.AwaitPut(c1, 0, 1, allocDst); err != nil {
			t.Fatal(err)
		}
	}
	put() // the mailbox grows once
	if n := testing.AllocsPerRun(100, put); n != 0 {
		t.Errorf("warm PutAsync+AwaitPut: %v allocs/run, want 0", n)
	}
}

func TestWindowPullAllocatesNothing(t *testing.T) {
	win, c0, c1 := warmWindowPair(t)
	if err := win.Settle(c0); err != nil {
		t.Fatal(err)
	}
	offered := []Share{{Win: win, Src: allocSrc}}
	pulled := []Share{{Win: win, Src: allocSrc, Dst: make([]float64, 4096), Dr: allocDst}}
	pull := func() {
		if err := win.Offer(c0, 1, 2, offered); err != nil {
			t.Fatal(err)
		}
		if err := win.Pull(c1, 0, 2, pulled); err != nil {
			t.Fatal(err)
		}
		if err := win.Settle(c0); err != nil {
			t.Fatal(err)
		}
	}
	pull()
	if n := testing.AllocsPerRun(100, pull); n != 0 {
		t.Errorf("warm Offer+Pull+Settle: %v allocs/run, want 0", n)
	}
}
