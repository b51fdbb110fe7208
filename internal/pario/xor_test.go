package pario

import (
	"bytes"
	"testing"
)

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
