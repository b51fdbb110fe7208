// Straggler rebalancing: the block bounds that divide work in proportion
// to measured per-rank speeds (from the health scorer), and the
// particle-count bounds of the paper's balance() (Figure 2).
package scale

// FairShares normalizes per-rank speeds (from health.Scorer.Speeds)
// into work shares summing to 1.  Non-positive speeds are clamped to a
// small fraction of the fastest so a stalled rank still gets a sliver
// rather than a divide-by-zero; all-non-positive input degrades to an
// even split.
func FairShares(speeds []float64) []float64 {
	n := len(speeds)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	max := 0.0
	for _, v := range speeds {
		if v > max {
			max = v
		}
	}
	if max <= 0 {
		for i := range out {
			out[i] = 1 / float64(n)
		}
		return out
	}
	floor := max * 1e-3
	sum := 0.0
	for i, v := range speeds {
		if v < floor {
			v = floor
		}
		out[i] = v
		sum += v
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// WeightedBounds divides n items (rows, columns) over len(speeds)
// processors in proportion to their measured speeds: the generalized
// B_BLOCK bounds of the paper's §2.3, with the straggler's block shrunk
// by its slowdown.  Bounds are 1-based inclusive upper bounds per
// processor, non-decreasing, ending at n — the exact shape
// dist.BBlockDim wants.  Equal speeds reproduce the even block split.
func WeightedBounds(n int, speeds []float64) []int {
	shares := FairShares(speeds)
	np := len(shares)
	bounds := make([]int, np)
	cum := 0.0
	for p := 0; p < np; p++ {
		cum += shares[p]
		b := int(cum*float64(n) + 0.5)
		if p > 0 && b < bounds[p-1] {
			b = bounds[p-1]
		}
		if b > n {
			b = n
		}
		bounds[p] = b
	}
	if np > 0 {
		bounds[np-1] = n
	}
	return bounds
}

// CountBounds returns B_BLOCK bounds assigning contiguous cells to np
// processors so that each gets roughly total/np of the counts (particles
// per cell) — the balance() of the paper's Figure 2.  Bounds are 1-based
// inclusive upper bounds, non-decreasing, ending at len(counts).  It sets
// one bound per cell: a cell heavy enough to pass several targets closes
// one block, and the next blocks close at the following cells.  That is
// why it is not WeightedCountBounds with even shares, which closes a
// block at every target the cell passes.
func CountBounds(counts []float64, np int) []int {
	total := 0.0
	for _, c := range counts {
		total += c
	}
	per := total / float64(np)
	bounds := make([]int, np)
	acc := 0.0
	p := 0
	for i, c := range counts {
		acc += c
		if acc >= per*float64(p+1) && p < np-1 {
			bounds[p] = i + 1 // 1-based cell index
			p++
		}
	}
	return closeBounds(bounds, p, len(counts))
}

// WeightedCountBounds generalizes CountBounds to uneven targets: the
// cumulative count targets follow the given work shares (summing to 1,
// from FairShares) instead of an even total/np split, so a slow
// processor's segment carries proportionally fewer particles.
func WeightedCountBounds(counts, shares []float64) []int {
	np := len(shares)
	total := 0.0
	for _, c := range counts {
		total += c
	}
	targets := make([]float64, np)
	cum := 0.0
	for p := range shares {
		cum += shares[p]
		targets[p] = total * cum
	}
	bounds := make([]int, np)
	acc := 0.0
	p := 0
	for i, c := range counts {
		acc += c
		for p < np-1 && acc >= targets[p] {
			bounds[p] = i + 1 // 1-based cell index
			p++
		}
	}
	return closeBounds(bounds, p, len(counts))
}

// closeBounds gives the processors from p on the bound n, fills any gap
// so the bounds never decrease, and ends them at n.
func closeBounds(bounds []int, p, n int) []int {
	for ; p < len(bounds); p++ {
		bounds[p] = n
	}
	prev := 0
	for i := range bounds {
		if bounds[i] < prev {
			bounds[i] = prev
		}
		prev = bounds[i]
	}
	bounds[len(bounds)-1] = n
	return bounds
}
