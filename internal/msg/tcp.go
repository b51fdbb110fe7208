package msg

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCPTransport connects np logical processors through a full mesh of TCP
// loopback connections.  Every payload byte crosses a real socket, making
// this the "honest" transport for validating that the runtime's message
// counts and sizes are what the in-process transport reports.
//
// Frame format (little-endian):
//
//	[8 bytes tag] [4 bytes payload length] [8 bytes sender clock bits] [payload]
//
// The tag field is 8 bytes because collective tags grow monotonically and
// never wrap (see TagCollBase).  The sender's rank is established once per
// connection by a 4-byte handshake, not repeated per frame.  TestTCPFrameGolden
// pins these bytes.
//
// The sender copies no payload in user space: a frame above tcpCoalesce
// leaves by writev straight from the caller's pieces — a Send's slice, or
// the storage runs a Window offers or puts (gatherSender) — with the
// header and any CRC32C trailer.  The reader lands each payload in a
// buffer of exactly its size that the consumer may hand back with
// Packet.Release (see rxFree); the consumer's unpack is the one copy.
type TCPTransport struct {
	core
	conns []net.Conn // every connection, for Close; written only by NewTCPTransport
	// readers counts the running readLoops; Close waits for them, so no
	// reader touches an endpoint once Close has returned.
	readers sync.WaitGroup
}

const (
	tcpFrameHeader = 20
	// maxFrame is the largest payload a frame may carry.  The length
	// field is 32 bits wide, so without a limit a payload of 4 GiB or more
	// would wrap into a short frame followed by bytes the reader takes
	// for headers, and a damaged length would make the reader allocate
	// whatever it says.  Send refuses more; the reader treats more as a
	// broken connection.  The chan transport keeps the same limit, so a
	// program sends alike on both.
	maxFrame = 1 << 30
	// tcpCoalesce is the payload size up to which Send copies the payload
	// behind the header in the connection's scratch and issues a plain
	// write: for the barrier tokens and reduction scalars that make up
	// most messages, gathering two or three iovecs costs more than
	// copying a few hundred bytes.
	tcpCoalesce = 1024
	// rxFreeCap bounds a connection's free list of receive buffers, and
	// TCP payloads below rxFreeMin bypass it: the reader allocates them
	// cheaply and they would only push the bulk buffers out.  (A payload
	// copied by core.land is copied anyway, so all of those take the list.)
	rxFreeCap = 4
	rxFreeMin = 4096
)

// putFrameHeader writes the 20-byte frame header for a payload of n bytes.
func putFrameHeader(hdr []byte, tag, n int, sendClock float64) {
	tagBits := uint64(int64(tag))
	PutUint32(hdr, 0, uint32(tagBits))
	PutUint32(hdr, 4, uint32(tagBits>>32))
	PutUint32(hdr, 8, uint32(n))
	bits := float64bitsSafe(sendClock)
	PutUint32(hdr, 12, uint32(bits))
	PutUint32(hdr, 16, uint32(bits>>32))
}

// parseFrameHeader decodes a frame header; ok is false when the length
// field exceeds maxFrame, which no sender writes.
func parseFrameHeader(hdr []byte) (tag, n int, sendClock float64, ok bool) {
	length := GetUint32(hdr, 8)
	if length > maxFrame {
		return 0, 0, 0, false
	}
	tag = int(int64(uint64(GetUint32(hdr, 0)) | uint64(GetUint32(hdr, 4))<<32))
	clockBits := uint64(GetUint32(hdr, 12)) | uint64(GetUint32(hdr, 16))<<32
	return tag, int(length), float64frombitsSafe(clockBits), true
}

// rxFree is one connection's free list of receive buffers — a TCP
// connection's, or a sender-receiver pair's for the copies core.land
// makes.  The reader (for land, the sending copy) takes a buffer of
// exactly the incoming payload's length when one is listed and allocates
// otherwise; a buffer enters the list only through Packet.Release.
// Transfer sizes repeat exactly from step to step, so in steady state a
// bulk payload lands in the buffer its predecessor was released from and
// nothing its size is allocated; a size that stops recurring is pushed
// out by later releases, so at most rxFreeCap buffers are ever held per
// connection.
type rxFree struct {
	mu   sync.Mutex
	bufs [rxFreeCap][]byte
	next int // slot the next release into a full list overwrites
}

func (f *rxFree) take(n int) []byte {
	f.mu.Lock()
	for i, b := range f.bufs {
		if len(b) == n {
			f.bufs[i] = nil
			f.mu.Unlock()
			return b
		}
	}
	f.mu.Unlock()
	return make([]byte, n)
}

func (f *rxFree) put(b []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	slot := -1
	for i, x := range f.bufs {
		switch {
		case x == nil:
			if slot < 0 {
				slot = i
			}
		case &x[0] == &b[0]:
			return // released twice
		}
	}
	if slot < 0 {
		slot = f.next
		f.next = (f.next + 1) % rxFreeCap
	}
	f.bufs[slot] = b
}

// NewTCPTransport builds the mesh on 127.0.0.1 ephemeral ports.
func NewTCPTransport(np int, opts ...Option) (*TCPTransport, error) {
	if np <= 0 {
		return nil, fmt.Errorf("msg: invalid processor count %d", np)
	}
	t := &TCPTransport{}
	t.init(np, opts, t.write)
	eps := make([]*tcpEndpoint, np)
	for i := range eps {
		eps[i] = &tcpEndpoint{port: port{&t.core, i}, out: make([]*tcpConn, np)}
		t.eps[i] = eps[i]
	}

	// Every rank i < j pair gets one connection: i listens, j dials.
	// All of this happens in-process, so setup is just sequential wiring.
	for i := 0; i < np; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("msg: listen: %w", err)
		}
		addr := ln.Addr().String()
		type dialRes struct {
			j    int
			conn net.Conn
			err  error
		}
		need := np - i - 1
		results := make(chan dialRes, need)
		for j := i + 1; j < np; j++ {
			go func(j int) {
				c, err := net.DialTimeout("tcp", addr, 5*time.Second)
				if err == nil {
					var hdr [4]byte
					PutUint32(hdr[:], 0, uint32(j))
					_, err = c.Write(hdr[:])
				}
				results <- dialRes{j, c, err}
			}(j)
		}
		accepted := make(map[int]net.Conn, need)
		for k := 0; k < need; k++ {
			c, err := ln.Accept()
			if err != nil {
				ln.Close()
				t.Close()
				return nil, fmt.Errorf("msg: accept: %w", err)
			}
			var hdr [4]byte
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				ln.Close()
				t.Close()
				return nil, fmt.Errorf("msg: handshake: %w", err)
			}
			accepted[int(GetUint32(hdr[:], 0))] = c
		}
		ln.Close()
		for k := 0; k < need; k++ {
			r := <-results
			if r.err != nil {
				t.Close()
				return nil, fmt.Errorf("msg: dial: %w", r.err)
			}
			// rank i's side of the pair is the accepted conn; rank j's
			// side is the dialed conn.
			ci := &tcpConn{conn: accepted[r.j]}
			cj := &tcpConn{conn: r.conn}
			eps[i].out[r.j] = ci
			eps[r.j].out[i] = cj
			t.conns = append(t.conns, accepted[r.j], r.conn)
			t.readers.Add(2)
			go func() { defer t.readers.Done(); eps[i].readLoop(r.j, ci) }()
			go func() { defer t.readers.Done(); eps[r.j].readLoop(i, cj) }()
		}
	}
	return t, nil
}

// tcpConn is one rank's end of a connection.  mu serializes senders and
// guards their scratch; free belongs to the read side.
type tcpConn struct {
	mu   sync.Mutex
	conn net.Conn
	// scratch holds the outgoing frame header, then either a coalesced
	// small payload or the integrity trailer of a gathered one; gw is the
	// gathered write's own state (tcp_writev_*.go).  Nothing here is
	// allocated per message.
	scratch [tcpFrameHeader + tcpCoalesce]byte
	gw      gatherWriter
	free    rxFree
}

type tcpEndpoint struct {
	port
	out []*tcpConn // by peer rank; nil for self
}

// readLoop lands the frames of the connection from rank from in the
// endpoint's mailbox until the connection closes.
func (e *tcpEndpoint) readLoop(from int, c *tcpConn) {
	hdr := make([]byte, tcpFrameHeader)
	for {
		if _, err := io.ReadFull(c.conn, hdr); err != nil {
			return // connection closed
		}
		tag, n, sendClock, ok := parseFrameHeader(hdr)
		if !ok {
			// No sender writes such a length: the stream is out of step
			// and nothing behind this header can be trusted.
			c.conn.Close()
			return
		}
		p := Packet{From: from, Tag: tag, SendClock: sendClock}
		if n < rxFreeMin {
			p.Data = make([]byte, n)
		} else {
			p.Data, p.home = c.free.take(n), &c.free
		}
		if _, err := io.ReadFull(c.conn, p.Data); err != nil {
			return
		}
		e.t.boxes[e.rank].put(p)
	}
}

// Close tears down all connections and returns once their readers have
// stopped; blocked receives return ErrClosed.
func (t *TCPTransport) Close() error {
	if !t.shut() {
		return nil
	}
	for _, c := range t.conns {
		c.Close()
	}
	t.readers.Wait()
	return nil
}

// write is the TCP delivery: one frame whose payload is g — a small one
// copied behind the header and written whole, a larger one gathered from
// the caller's pieces by writev.  A send to self lands by copy.
func (t *TCPTransport) write(from, to, tag int, g gather, sendClock float64) error {
	if to == from {
		return t.land(from, to, tag, g, sendClock)
	}
	n := g.len()
	oc := t.eps[from].(*tcpEndpoint).out[to]
	oc.mu.Lock()
	putFrameHeader(oc.scratch[:], tag, n, sendClock)
	var err error
	if n <= tcpCoalesce {
		g.copyTo(oc.scratch[tcpFrameHeader : tcpFrameHeader+n])
		_, err = oc.conn.Write(oc.scratch[:tcpFrameHeader+n])
	} else {
		trailer := oc.scratch[tcpFrameHeader:tcpFrameHeader]
		if g.summed {
			trailer = trailer[:4]
			PutUint32(trailer, 0, g.sum)
		}
		err = oc.writeFrame(oc.scratch[:tcpFrameHeader], g.one, g.pieces, trailer)
	}
	oc.mu.Unlock()
	if err != nil {
		return fmt.Errorf("msg: tcp send: %w", err)
	}
	return nil
}
