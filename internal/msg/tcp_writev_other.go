//go:build !linux

package msg

import "net"

// gatherWriter is a connection's gather list for net.Buffers, which
// writes it with writev where the platform has one.
type gatherWriter struct {
	bufs net.Buffers
}

// writeFrame writes hdr, one, pieces and trailer as one frame.  oc.mu is
// held.
func (oc *tcpConn) writeFrame(hdr, one []byte, pieces [][]byte, trailer []byte) error {
	w := &oc.gw
	w.bufs = append(append(append(w.bufs[:0], hdr, one), pieces...), trailer)
	bufs := w.bufs // WriteTo consumes its receiver
	_, err := bufs.WriteTo(oc.conn)
	clear(w.bufs) // hold no caller memory past the call
	return err
}
