package pario

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/index"
)

// extractRef is the per-element walk Extract replaced: one IndexOf and
// one 8-byte copy per point.  It is the reference the run mapper must
// match bit for bit.
func extractRef(dst, payload []byte, from, want index.Grid) {
	off := 0
	want.ForEach(func(p index.Point) bool {
		copy(dst[off:off+8], payload[8*canonicalPos(from, p):][:8])
		off += 8
		return true
	})
}

// canonicalPos is p's position in g's canonical enumeration (dimension 0
// fastest).
func canonicalPos(g index.Grid, p index.Point) int {
	pos, mul := 0, 1
	for k, d := range g.Dims {
		pos += d.IndexOf(p[k]) * mul
		mul *= d.Count()
	}
	return pos
}

// owned is the index set rank r of np owns along a dimension 0..n-1
// under the named distribution.
func owned(kind string, n, np, r int) index.RunSet {
	switch kind {
	case "block":
		b := (n + np - 1) / np
		return index.NewRunSet(index.NewRun(r*b, min((r+1)*b, n)-1, 1))
	case "cyclic1":
		return index.NewRunSet(index.NewRun(r, n-1, np))
	case "cyclic3":
		var runs []index.Run
		for j := 0; j < 3; j++ {
			runs = append(runs, index.NewRun(3*r+j, n-1, 3*np))
		}
		return index.NewRunSet(runs...)
	case "bblock":
		// Uneven general blocks: rank r gets r+1 shares of n.
		total := np * (np + 1) / 2
		lo := n * (r * (r + 1) / 2) / total
		hi := n*((r+1)*(r+2)/2)/total - 1
		return index.NewRunSet(index.NewRun(lo, hi, 1))
	}
	panic(kind)
}

// value gives point p a full-width bit pattern.
func value(p index.Point) uint64 {
	v := 1.0
	for k, i := range p {
		v += math.Sin(float64(i*(k+3))) * math.Exp(float64(k))
	}
	return math.Float64bits(v)
}

// payloadOf is g's values in g's canonical order.
func payloadOf(g index.Grid) []byte {
	var b []byte
	g.ForEach(func(p index.Point) bool {
		b = binary.LittleEndian.AppendUint64(b, value(p))
		return true
	})
	return b
}

// checkExtract compares Extract with its reference on one (sub, super)
// pair of grids.
func checkExtract(t *testing.T, name string, sub, super index.Grid) {
	t.Helper()
	part := payloadOf(sub)
	whole := payloadOf(super)
	got, want := make([]byte, len(part)), make([]byte, len(part))
	Extract(got, whole, super, sub)
	extractRef(want, whole, super, sub)
	if !bytes.Equal(got, want) {
		t.Errorf("%s: Extract differs from the per-element reference (sub %v of %v)", name, sub, super)
	}
	if !bytes.Equal(got, part) {
		t.Errorf("%s: Extract did not return sub's own values", name)
	}
}

// TestPlaceExtractRuns runs Extract against the per-element reference,
// bit for bit, on what a restore reads: every saved rank's grid under
// BLOCK, CYCLIC(1), CYCLIC(3) and B_BLOCK in each dimension of 1-D, 2-D
// and 3-D domains, intersected with every new rank's grid of a BLOCK or
// CYCLIC(3) over 3 ranks in the same dimension, and with a window of the
// domain (the general contract).
func TestPlaceExtractRuns(t *testing.T) {
	const np = 4
	extents := [][]int{{29}, {13, 9}, {7, 6, 5}}
	for _, ext := range extents {
		whole := index.Grid{Dims: make([]index.RunSet, len(ext))}
		window := index.Grid{Dims: make([]index.RunSet, len(ext))}
		for k, e := range ext {
			whole.Dims[k] = index.NewRunSet(index.NewRun(0, e-1, 1))
			window.Dims[k] = index.NewRunSet(index.NewRun(1, e-2, 1))
		}
		for _, kind := range []string{"block", "cyclic1", "cyclic3", "bblock"} {
			for d := range ext {
				for r := 0; r < np; r++ {
					saved := whole
					saved.Dims = append([]index.RunSet(nil), whole.Dims...)
					saved.Dims[d] = owned(kind, ext[d], np, r)
					wants := []index.Grid{window}
					for _, newKind := range []string{"block", "cyclic3"} {
						for q := 0; q < 3; q++ {
							mine := whole
							mine.Dims = append([]index.RunSet(nil), whole.Dims...)
							mine.Dims[d] = owned(newKind, ext[d], 3, q)
							wants = append(wants, mine)
						}
					}
					for i, w := range wants {
						if sub := saved.Intersect(w); !sub.Empty() {
							checkExtract(t, fmt.Sprintf("%dD %s dim %d rank %d, want %d", len(ext), kind, d, r, i), sub, saved)
						}
					}
				}
			}
		}
	}
	// A sub-run whose stride is a multiple of the enclosing run's goes
	// element by element.
	super := index.Grid{Dims: []index.RunSet{{{Lo: 1, Hi: 19, Stride: 2}}, {{Lo: 0, Hi: 3, Stride: 1}}}}
	sub := index.Grid{Dims: []index.RunSet{{{Lo: 3, Hi: 15, Stride: 4}}, {{Lo: 1, Hi: 2, Stride: 1}}}}
	checkExtract(t, "stride multiple", sub, super)
}

// xorRef is the byte loop XorInto replaced.
func xorRef(dst, src []byte) {
	for i, b := range src {
		dst[i] ^= b
	}
}

// TestXorIntoWords: every length around the word size, at every
// alignment of both operands, folds exactly as the byte loop does and
// leaves dst beyond len(src) alone.
func TestXorIntoWords(t *testing.T) {
	backing := make([]byte, 64)
	for i := range backing {
		backing[i] = byte(i*37 + 11)
	}
	for n := 0; n <= 17; n++ {
		for da := 0; da < 8; da++ {
			for sa := 0; sa < 8; sa++ {
				src := backing[sa : sa+n]
				got, want := make([]byte, 40), make([]byte, 40)
				for i := range got {
					got[i] = byte(i*101 + 7)
				}
				copy(want, got)
				XorInto(got[da:da+n+3], src)
				xorRef(want[da:da+n+3], src)
				if !bytes.Equal(got, want) {
					t.Fatalf("n=%d dst+%d src+%d: got %x, want %x", n, da, sa, got, want)
				}
			}
		}
	}
}

// BenchmarkExtract extracts the 192×192 corner of a 192×768 rank file
// (a (:,BLOCK) restore over 4 ranks of a 768² grid saved (BLOCK,:)); the
// sub-benchmark "ref" is the per-element walk it replaced.
func BenchmarkExtract(b *testing.B) {
	saved := index.Grid{Dims: []index.RunSet{
		index.NewRunSet(index.NewRun(0, 191, 1)), index.NewRunSet(index.NewRun(0, 767, 1)),
	}}
	sub := saved.Intersect(index.Grid{Dims: []index.RunSet{
		index.NewRunSet(index.NewRun(0, 767, 1)), index.NewRunSet(index.NewRun(192, 383, 1)),
	}})
	payload := make([]byte, 8*saved.Count())
	dst := make([]byte, 8*sub.Count())
	for name, extract := range map[string]func(dst, payload []byte, from, want index.Grid){"runs": Extract, "ref": extractRef} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(dst)))
			for i := 0; i < b.N; i++ {
				extract(dst, payload, saved, sub)
			}
		})
	}
}

// BenchmarkXorInto folds one 1.2 MB rank file into another.
func BenchmarkXorInto(b *testing.B) {
	dst, src := make([]byte, 768*192*8+24), make([]byte, 768*192*8+24)
	for name, xor := range map[string]func(dst, src []byte){"words": XorInto, "ref": xorRef} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				xor(dst, src)
			}
		})
	}
}
