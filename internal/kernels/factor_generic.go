//go:build !amd64 || race

package kernels

// The portable loops are the whole of Factor.Solve off amd64 and under
// -race (which cannot see into assembly).

func rowFwd(cur, prev []float64, mi float64)     { rowFwdGo(cur, prev, mi) }
func rowBack(cur, prev []float64, c, bi float64) { rowBackGo(cur, prev, c, bi) }

func (f Factor) solveLanes(data []float64, start, lineStride int) {
	f.solveLanesGo(data, start, lineStride)
}
