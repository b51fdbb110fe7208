//go:build amd64 && !race

package kernels

// smoothSpanSSE2 is smoothSpanGo over n points, n a positive multiple of
// 4, two at a time (smooth_amd64.s).  SSE2 is the GOAMD64=v1 baseline, so
// nothing is probed or dispatched, and ADDPD/MULPD round each lane exactly
// as ADDSD/MULSD do, so the result is Float64bits-identical to the Go
// loop.  Wider vectors measured no faster: the row streams from L2.
//
//go:noescape
func smoothSpanSSE2(d, c, s, nn *float64, n int)

// smoothSpan is the row kernel behind SmoothRow: the SSE2 kernel over the
// largest multiple of 4 points, the Go loop over the tail.  SmoothRow's
// re-slices are the assembly's bounds check: it requires len(c) ==
// len(d)+2 and len(s) == len(nn) == len(d), and reads c[:k+2], s[:k] and
// nn[:k] unchecked.
func smoothSpan(d, c, s, nn []float64) {
	k := len(d) &^ 3
	if k > 0 {
		smoothSpanSSE2(&d[0], &c[0], &s[0], &nn[0], k)
	}
	smoothSpanGo(d[k:], c[k:], s[k:], nn[k:])
}
