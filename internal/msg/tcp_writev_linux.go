//go:build linux

package msg

import (
	"syscall"
	"unsafe"
)

// tcpIovecs is how many segments one writev call gathers; a frame with
// more takes several calls (the kernel's limit is 1024).
const tcpIovecs = 64

// gatherWriter is a connection's writev state: its raw socket, the write
// callback bound to the connection once, an iovec array of its own (the
// standard library's writev keeps a per-socket slice that regrows on
// every fresh connection), and the frame being written — its segments
// (the header, one, each of pieces, the trailer) with a cursor on the
// next byte: segment seg, offset off, left bytes to go.
type gatherWriter struct {
	raw syscall.RawConn
	fn  func(fd uintptr) bool
	vec [tcpIovecs]syscall.Iovec

	hdr, one, trailer []byte
	pieces            [][]byte
	seg, off, left    int
	err               error
}

// writeFrame writes hdr, one, pieces and trailer as one frame, by writev
// calls straight from them.  oc.mu is held.
func (oc *tcpConn) writeFrame(hdr, one []byte, pieces [][]byte, trailer []byte) error {
	w := &oc.gw
	if w.fn == nil {
		raw, err := oc.conn.(syscall.Conn).SyscallConn()
		if err != nil {
			return err
		}
		w.raw, w.fn = raw, oc.writev
	}
	w.hdr, w.one, w.pieces, w.trailer = hdr, one, pieces, trailer
	w.seg, w.off, w.left, w.err = 0, 0, len(hdr)+len(one)+len(trailer), nil
	for _, p := range pieces {
		w.left += len(p)
	}
	err := w.raw.Write(w.fn)
	w.one, w.pieces = nil, nil // hold no caller memory past the call
	if err != nil {
		return err
	}
	return w.err
}

// segment returns segment i of the frame.
func (w *gatherWriter) segment(i int) []byte {
	switch {
	case i == 0:
		return w.hdr
	case i == 1:
		return w.one
	case i-2 < len(w.pieces):
		return w.pieces[i-2]
	}
	return w.trailer
}

// writev is the raw socket's write callback: it gathers the segments from
// the cursor on into the iovec array and writes them until the frame is
// out.  It returns false when the socket takes no more, and the poller
// calls it again once it can.
func (oc *tcpConn) writev(fd uintptr) bool {
	w := &oc.gw
	for w.left > 0 {
		k := 0
		for i := w.seg; i < 3+len(w.pieces) && k < len(w.vec); i++ {
			s := w.segment(i)
			if i == w.seg {
				s = s[w.off:]
			}
			if len(s) > 0 {
				w.vec[k].Base = &s[0]
				w.vec[k].SetLen(len(s))
				k++
			}
		}
		n, _, errno := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&w.vec[0])), uintptr(k))
		clear(w.vec[:k]) // hold no caller memory past the call
		switch errno {
		case 0:
			w.advance(int(n))
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			w.err = errno
			return true
		}
	}
	return true
}

// advance moves the cursor past n written bytes.
func (w *gatherWriter) advance(n int) {
	w.left -= n
	for n > 0 {
		rest := len(w.segment(w.seg)) - w.off
		if n < rest {
			w.off += n
			return
		}
		n -= rest
		w.seg, w.off = w.seg+1, 0
	}
}
