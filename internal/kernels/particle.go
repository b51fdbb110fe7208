package kernels

import "slices"

// ParticleWork is Figure 2's update_field over cells side by side: cell i
// adds the terms 1e-9*(w mod 7), w = 0 .. int(count[i])*work-1, to
// field[i] in that order, then count[i] itself — the work proportional to
// the cell's particles that B_BLOCK rebalancing exists to balance.
// len(field) must be at least len(count).  It allocates nothing.
//
// A cell's adds form one dependency chain whose order the serial oracles
// pin, but distinct cells' chains are independent, so interleave cells
// advance together (particleLanes) and their chains overlap in the
// pipeline, as Solve's lines do; the cells mod interleave tail runs one
// chain at a time.
func ParticleWork(field, count []float64, work int) {
	field = field[:len(count)]
	i := 0
	for ; i+interleave <= len(count); i += interleave {
		particleLanes(field[i:i+interleave], count[i:i+interleave], work)
	}
	for ; i < len(count); i++ {
		field[i] = particleChain(field[i], 0, int(count[i])*work) + count[i]
	}
}

// particleChain adds terms w0 .. w1-1 of one cell's chain to acc.  A
// counter cycling through 0..6 stands for w mod 7.
func particleChain(acc float64, w0, w1 int) float64 {
	r := w0 % 7
	for w := w0; w < w1; w++ {
		acc += 1e-9 * float64(r)
		if r++; r == 7 {
			r = 0
		}
	}
	return acc
}

// particleLanes runs ParticleWork on interleave cells: every chain takes
// term w in the same iteration, computed once for all of them, up to the
// group's shortest chain; each longer chain then finishes alone.  Figure
// 2's drift leaves neighbouring cells' counts alike, so the tails are
// short but for a pile-up cell, whose chain no lockstep can shorten.
func particleLanes(field, count []float64, work int) {
	field, count = field[:interleave], count[:interleave]
	var end [interleave]int
	for j, c := range count {
		end[j] = max(int(c)*work, 0)
	}
	m := slices.Min(end[:])
	a0, a1, a2, a3, a4, a5, a6, a7 := field[0], field[1], field[2], field[3], field[4], field[5], field[6], field[7]
	r := 0
	for w := 0; w < m; w++ {
		t := 1e-9 * float64(r)
		a0 += t
		a1 += t
		a2 += t
		a3 += t
		a4 += t
		a5 += t
		a6 += t
		a7 += t
		if r++; r == 7 {
			r = 0
		}
	}
	for j, a := range [interleave]float64{a0, a1, a2, a3, a4, a5, a6, a7} {
		field[j] = particleChain(a, m, end[j]) + count[j]
	}
}
