package msg

import (
	"fmt"
	"testing"
)

// wireLayers names the transports the wire tests and benchmarks run over.
var wireLayers = []string{"tcp", "integrity"}

// newWire builds a two-rank TCP transport, bare or under the integrity
// layer.
func newWire(tb testing.TB, layer string) Transport {
	tb.Helper()
	tcp, err := NewTCPTransport(2)
	if err != nil {
		tb.Fatal(err)
	}
	if layer == "integrity" {
		return NewIntegrityTransport(tcp)
	}
	return tcp
}

// roundTrips runs n send → recv → Release round trips between ranks 0 and
// 1 of t and returns the first error.  The echo side releases too and
// answers from a buffer of its own (the second half of buf), not with
// p.Data: what is measured is the steady state in which every received
// buffer goes home.
func roundTrips(t Transport, buf []byte, n int) error {
	const tag = 7
	a, b := t.Endpoint(0), t.Endpoint(1)
	payload, back := buf[:len(buf)/2], buf[len(buf)/2:]
	echoErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			p, err := b.Recv(0, tag)
			if err == nil {
				p.Release()
				err = b.Send(0, tag, back)
			}
			if err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	for i := 0; i < n; i++ {
		if err := a.Send(1, tag, payload); err != nil {
			return err
		}
		p, err := a.Recv(1, tag)
		if err != nil {
			return err
		}
		p.Release()
	}
	return <-echoErr
}

// BenchmarkTCPRoundTrip is the wire layer (make bench-wire): one op is a
// round trip, MB/s counts the payload both ways.
func BenchmarkTCPRoundTrip(b *testing.B) {
	for _, layer := range wireLayers {
		for _, size := range []int{64, 256 << 10, 1 << 20} {
			name := fmt.Sprintf("%s/%dB", layer, size)
			if size >= 1<<10 {
				name = fmt.Sprintf("%s/%dKiB", layer, size>>10)
			}
			b.Run(name, func(b *testing.B) {
				t := newWire(b, layer)
				defer t.Close()
				buf := make([]byte, 2*size)
				if err := roundTrips(t, buf, 4); err != nil { // warm the free lists
					b.Fatal(err)
				}
				b.SetBytes(2 * int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				if err := roundTrips(t, buf, b.N); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
