package msg

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// rawEndpoint returns rank 0's endpoint of a two-rank TCP transport whose
// connection to rank 1 is one end of a loopback pair the test holds the
// other end of, so what Send writes can be read off the wire verbatim.
func rawEndpoint(t *testing.T, cost *CostModel) (*tcpEndpoint, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	tr := &TCPTransport{}
	tr.init(2, []Option{WithCost(cost)}, tr.write)
	ep := &tcpEndpoint{port: port{&tr.core, 0}, out: []*tcpConn{nil, {conn: client}}}
	tr.eps[0] = ep
	return ep, server
}

// TestTCPFrameGolden freezes the wire format: tag, length, clock bits and
// payload — with integrity, the CRC32C trailer counted in the length —
// byte for byte, on the coalesced write of a small frame, on the gathered
// write of a large one and on a window offer's frame.  An offer's payload
// is gathered from the offered storage runs (more runs than one writev
// takes, and more bytes than the 64 KiB socket buffers take at once, so
// the writer meets a full socket) or, for a rect whose innermost stride
// is not 1, packed: either way it is the bytes PackRect puts behind one
// another.
func TestTCPFrameGolden(t *testing.T) {
	ep, wire := rawEndpoint(t, nil)
	if err := ep.out[1].conn.(*net.TCPConn).SetWriteBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	if err := wire.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	const tag = 0x0123456789
	header := func(tag, n int) []byte {
		h := []byte{
			0, 0, 0, 0, 0, 0, 0, 0, // tag, little-endian int64
			byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24), // payload length
			0, 0, 0, 0, 0, 0, 0xF8, 0x3F, // sender clock 1.5 as float64 bits
		}
		for i := 0; i < 8; i++ {
			h[i] = byte(tag >> (8 * i))
		}
		return h
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	sum := func(b []byte) []byte {
		s := crc32.Checksum(b, castagnoli)
		return []byte{byte(s), byte(s >> 8), byte(s >> 16), byte(s >> 24)}
	}
	big := make([]byte, 3*tcpCoalesce+5)
	for i := range big {
		big[i] = byte(i*7 + 1)
	}
	summed := &integrityEndpoint{inner: ep}

	// Two windows over rank 0's storage, offered from as registered.
	storage := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)*1.25 - 7
		}
		return s
	}
	wa, wb := NewWindow(2, "golden-a", ep.t.stats, nil), NewWindow(2, "golden-b", ep.t.stats, nil)
	da, db := storage(800), storage(100_000)
	wa.Register(0, da)
	wb.Register(0, db)
	for _, w := range []*Window{wa, wb} {
		if err := w.Settle(NewComm(ep)); err != nil {
			t.Fatal(err)
		}
	}
	// 100 separate runs of 3 (two writev calls' worth), and 60 runs of
	// 1000 elements 1500 apart (480 KB).
	runsA := Rect{Off: 5, Dims: []RectDim{{Stride: 1, Count: 3}, {Stride: 7, Count: 100}}}
	runsB := Rect{Off: 40, Dims: []RectDim{{Stride: 1, Count: 1000}, {Stride: 1500, Count: 60}}}
	strided := Rect{Off: 9, Dims: []RectDim{{Stride: 2, Count: 50}, {Stride: 200, Count: 3}}}
	twoShares := []Share{{Win: wa, Src: runsA}, {Win: wb, Src: runsB}}
	twoPacked := PackRect(PackRect(nil, da, runsA), db, runsB)
	stridedPacked := PackRect(nil, da, strided)
	offer := func(ep Endpoint, shares []Share) func() error {
		return func() error { return wa.Offer(NewComm(ep), 1, 3, shares) }
	}
	send := func(ep Endpoint, data []byte) func() error {
		return func() error { return ep.Send(1, tag, data) }
	}
	for _, tc := range []struct {
		name    string
		tag     int
		send    func() error
		payload []byte
		trailer []byte
	}{
		{"small", tag, send(ep, []byte("123456789")), []byte("123456789"), nil},
		// CRC32C("123456789") is the polynomial's check value, E3069283.
		{"small+crc", tag, send(summed, []byte("123456789")), []byte("123456789"), []byte{0x83, 0x92, 0x06, 0xE3}},
		{"empty+crc", tag, send(summed, nil), nil, []byte{0, 0, 0, 0}},
		{"large", tag, send(ep, big), big, nil},
		{"large+crc", tag, send(summed, big), big, sum(big)},
		{"offer", wa.tag(3), offer(ep, twoShares), twoPacked, nil},
		{"offer+crc", wa.tag(3), offer(summed, twoShares), twoPacked, sum(twoPacked)},
		{"offer-strided", wa.tag(3), offer(ep, []Share{{Win: wa, Src: strided}}), stridedPacked, nil},
		{"offer-strided+crc", wa.tag(3), offer(summed, []Share{{Win: wa, Src: strided}}), stridedPacked, sum(stridedPacked)},
	} {
		cost := NewCostModel(2, 1e-4, 1e-8)
		ep.t.cost = cost
		cost.Charge(0, 1.5) // the sender's clock: 0x3FF8000000000000
		want := append(header(tc.tag, len(tc.payload)+len(tc.trailer)), tc.payload...)
		want = append(want, tc.trailer...)
		errc := make(chan error, 1)
		go func() { errc <- tc.send() }()
		got := make([]byte, len(want))
		wire.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(wire, got); err != nil {
			t.Fatalf("%s: reading the frame: %v", tc.name, err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("%s: send: %v", tc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: frame differs from the golden bytes\n got %x…\nwant %x…", tc.name, got[:min(len(got), 40)], want[:min(len(want), 40)])
		}
	}
	// Nothing else was written.
	wire.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, _ := wire.Read(make([]byte, 1)); n != 0 {
		t.Error("bytes on the wire beyond the frames sent")
	}
}

// FuzzTCPFrameHeader: decoding any 20 bytes neither panics nor asks the
// reader for more than maxFrame, and a header the decoder accepts is the
// one putFrameHeader writes for what it decoded.
func FuzzTCPFrameHeader(f *testing.F) {
	seed := make([]byte, tcpFrameHeader)
	f.Add(seed)
	putFrameHeader(seed, TagCollBase+7, 1<<20, 1.5)
	f.Add(bytes.Clone(seed))
	putFrameHeader(seed, -1, maxFrame, 0)
	f.Add(bytes.Clone(seed))
	PutUint32(seed, 8, maxFrame+1)
	f.Add(bytes.Clone(seed))
	f.Add(bytes.Repeat([]byte{0xFF}, tcpFrameHeader))
	f.Fuzz(func(t *testing.T, hdr []byte) {
		if len(hdr) != tcpFrameHeader {
			return
		}
		tag, n, clock, ok := parseFrameHeader(hdr)
		if !ok {
			if GetUint32(hdr, 8) <= maxFrame {
				t.Fatalf("length %d refused", GetUint32(hdr, 8))
			}
			return
		}
		if n < 0 || n > maxFrame {
			t.Fatalf("decoder asks for %d bytes", n)
		}
		back := make([]byte, tcpFrameHeader)
		putFrameHeader(back, tag, n, clock)
		if !bytes.Equal(back, hdr) {
			t.Fatalf("header %x re-encodes as %x", hdr, back)
		}
	})
}

// TestTCPReaderRejectsOversizedLength: a length field above maxFrame is a
// broken connection — the reader allocates nothing for it and hangs up.
func TestTCPReaderRejectsOversizedLength(t *testing.T) {
	ep, wire := rawEndpoint(t, nil)
	done := make(chan struct{})
	go func() { ep.readLoop(1, ep.out[1]); close(done) }()
	hdr := make([]byte, tcpFrameHeader)
	putFrameHeader(hdr, 7, 0, 0)
	PutUint32(hdr, 8, maxFrame+1)
	if _, err := wire.Write(hdr); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reader still running after a frame length above maxFrame")
	}
	wire.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := wire.Read(make([]byte, 1))
	var ne net.Error
	if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Errorf("connection not closed by the reader: %v", err)
	}
}

// TestPacketReleaseAliasing: a payload the receiver holds, from the free
// list or carved from the reader's chunk (under rxFreeMin), is never
// touched by later traffic, a released buffer is handed out to one later
// packet at a time, and releasing twice — or releasing a chan packet — is
// harmless.
func TestPacketReleaseAliasing(t *testing.T) {
	sizes := []int{2 * rxFreeMin, 3 * rxFreeMin, rxFreeMin - 1000}
	pattern := func(seq, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(seq*31 + i)
		}
		return b
	}
	for _, layer := range wireLayers {
		t.Run(layer, func(t *testing.T) {
			tr := newWire(t, layer)
			defer tr.Close()
			a, b := tr.Endpoint(0), tr.Endpoint(1)
			seq := 0
			// exchange sends k payloads 0 → 1 and receives them all.
			exchange := func(k int) []Packet {
				t.Helper()
				first := seq
				go func() {
					for i := 0; i < k; i++ {
						if err := a.Send(1, 5, pattern(first+i, sizes[(first+i)%len(sizes)])); err != nil {
							t.Error(err)
						}
					}
				}()
				seq += k
				ps := make([]Packet, k)
				for i := range ps {
					p, err := b.Recv(0, 5)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(p.Data, pattern(first+i, sizes[(first+i)%len(sizes)])) {
						t.Fatalf("payload %d arrived damaged", first+i)
					}
					ps[i] = p
				}
				return ps
			}
			base := func(p Packet) *byte { return &p.Data[0] }

			const k = 8
			got := exchange(k)
			released := map[*byte]bool{}
			var held []Packet
			for i, p := range got {
				if i%2 == 0 {
					held = append(held, p)
					continue
				}
				released[base(p)] = true
				p.Release()
				p.Release() // twice in a row: harmless
			}
			for round := 0; round < 3; round++ {
				next := exchange(k)
				live := map[*byte]bool{}
				for _, p := range held {
					live[base(p)] = true
				}
				reused := 0
				for _, p := range next {
					if live[base(p)] {
						t.Fatalf("round %d: two live packets share a buffer", round)
					}
					live[base(p)] = true
					if released[base(p)] {
						reused++
					}
				}
				if reused == 0 {
					t.Errorf("round %d: no released buffer was reused", round)
				}
				for i, p := range held {
					if !bytes.Equal(p.Data, pattern(2*i, sizes[(2*i)%len(sizes)])) {
						t.Fatalf("round %d: held payload %d changed under later traffic", round, 2*i)
					}
				}
				for _, p := range next {
					released[base(p)] = true
					p.Release()
				}
			}
		})
	}
	t.Run("chan", func(t *testing.T) {
		tr := NewChanTransport(2)
		defer tr.Close()
		want := pattern(1, sizes[0])
		if err := tr.Endpoint(0).Send(1, 5, want); err != nil {
			t.Fatal(err)
		}
		p, err := tr.Endpoint(1).Recv(0, 5)
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
		p.Release()
		Packet{}.Release()
		if !bytes.Equal(p.Data, want) {
			t.Error("a chan packet's payload changed on Release")
		}
	})
}

// TestTCPSteadyStateAllocs: warm 256 KiB send → recv → Release round
// trips allocate a bounded number of objects and far less than one
// payload per trip, on TCP and under the integrity layer.  Reached on the
// reference box, with and without -race: 0.0–0.1 objects and 3–5 bytes
// per round trip (the parent: 4–7 objects and 1.0–1.6 MB).
func TestTCPSteadyStateAllocs(t *testing.T) {
	const size, trips = 256 << 10, 64
	for _, layer := range wireLayers {
		tr := newWire(t, layer)
		buf := make([]byte, 2*size)
		if err := roundTrips(tr, buf, 8); err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := roundTrips(tr, buf, trips)
		runtime.ReadMemStats(&m1)
		tr.Close()
		if err != nil {
			t.Fatal(err)
		}
		objs := float64(m1.Mallocs-m0.Mallocs) / trips
		byts := float64(m1.TotalAlloc-m0.TotalAlloc) / trips
		t.Logf("%s: %.1f objects, %.0f bytes per round trip", layer, objs, byts)
		if objs > 2 || byts > size/64 {
			t.Errorf("%s: %.1f objects and %.0f bytes allocated per warm %d-byte round trip, want at most 2 and %d",
				layer, objs, byts, size, size/64)
		}
	}
}

// TestTCPGatheredOfferAllocs: a warm Offer → Pull of a rect of 40 runs
// beside a strided-innermost rect over TCP under the integrity layer
// allocates nothing — the offer's gather list, the pack buffer of its
// strided share, the connection's iovecs and the receive buffer are all
// recycled — and lands the offered values.
func TestTCPGatheredOfferAllocs(t *testing.T) {
	tr := newWire(t, "integrity")
	defer tr.Close()
	a, b := NewComm(tr.Endpoint(0)), NewComm(tr.Endpoint(1))
	w := NewWindow(2, "allocs", tr.Stats(), nil)
	src := make([]float64, 64*64)
	for i := range src {
		src[i] = float64(i) + 0.5
	}
	w.Register(0, src)
	if err := w.Settle(a); err != nil {
		t.Fatal(err)
	}
	rect := Rect{Off: 64 + 3, Dims: []RectDim{{Stride: 1, Count: 48}, {Stride: 64, Count: 40}}}
	strided := Rect{Off: 5, Dims: []RectDim{{Stride: 64, Count: 30}, {Stride: 2, Count: 4}}}
	dst := make([]float64, rect.Count())
	sdst := make([]float64, strided.Count())
	shares := []Share{
		{Win: w, Src: rect, Dst: dst, Dr: RectRun(0, len(dst))},
		{Win: w, Src: strided, Dst: sdst, Dr: RectRun(0, len(sdst))},
	}
	trip := func() {
		if err := w.Offer(a, 1, 1, shares); err != nil {
			t.Fatal(err)
		}
		if err := w.Pull(b, 0, 1, shares); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		trip()
	}
	if n := testing.AllocsPerRun(50, trip); n != 0 {
		t.Errorf("a warm gathered offer and its pull allocate %.1f objects, want 0", n)
	}
	for i, v := range dst {
		if want := src[rect.Off+i/48*64+i%48]; v != want {
			t.Fatalf("element %d pulled as %v, want %v", i, v, want)
		}
	}
	for i, v := range sdst {
		if want := src[strided.Off+i%30*64+i/30*2]; v != want {
			t.Fatalf("strided element %d pulled as %v, want %v", i, v, want)
		}
	}
}

// settledGoroutines is runtime.NumGoroutine once it has held still for
// three samples 5 ms apart (2 s at most): the goroutines of the tests
// before may still be exiting when a test starts.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); still < 3 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// TestRecvTimeoutCheap: a timed receive that is satisfied at once starts
// no goroutine and allocates a constant handful of objects (one timer
// with its closure; the parent started a goroutine and a 1 ms ticker per
// call).
func TestRecvTimeoutCheap(t *testing.T) {
	tr := NewChanTransport(2)
	defer tr.Close()
	a, b := tr.Endpoint(0), tr.Endpoint(1)
	before := settledGoroutines()
	trip := func() {
		if err := a.Send(1, 3, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := b.RecvTimeout(0, 3, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		trip()
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines after 200 satisfied timed receives, %d before", after, before)
	}
	if n := testing.AllocsPerRun(200, trip); n > 5 {
		t.Errorf("a satisfied timed receive allocates %.0f objects, want at most 5", n)
	}
}

// TestAlarmReuse: timed waits on one mailbox share the alarm it keeps.
// A packet already queued arms nothing; a wait that expires returns
// ErrTimeout and its alarm serves the next wait; and a fire left over
// from an earlier arming does not expire the current one.
func TestAlarmReuse(t *testing.T) {
	m := &matcher{}
	m.cond.L = &m.mu
	m.put(Packet{From: 1, Tag: 2})
	if _, err := m.get(1, 2, time.Hour); err != nil || len(m.alarms) != 0 {
		t.Fatalf("queued packet: err %v, %d alarms armed", err, len(m.alarms))
	}
	for i := 0; i < 3; i++ {
		if _, err := m.get(1, 2, time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("wait %d: %v, want ErrTimeout", i, err)
		}
	}
	if len(m.alarms) != 1 {
		t.Fatalf("three timed-out waits left %d alarms, want one reused", len(m.alarms))
	}
	m.mu.Lock()
	a := m.alarms[0]
	a.when, a.expired = time.Now().Add(time.Hour), false
	a.timer.Reset(0) // a late fire of the millisecond arming
	m.cond.Wait()    // until that fire has run and broadcast
	expired := a.expired
	m.mu.Unlock()
	if expired {
		t.Fatal("a stale fire expired the re-armed alarm")
	}
}
