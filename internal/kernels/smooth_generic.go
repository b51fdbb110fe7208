//go:build !amd64 || race

package kernels

// smoothSpan is the row kernel behind SmoothRow.  Under -race the Go loop
// is the whole kernel on amd64 too, so the detector keeps seeing the
// sweep's reads of ghost cells that inbound puts write.
func smoothSpan(d, c, s, nn []float64) { smoothSpanGo(d, c, s, nn) }
