//go:build amd64 && !race

#include "textflag.h"

DATA quarter<>+0(SB)/8, $0.25
DATA quarter<>+8(SB)/8, $0.25
GLOBL quarter<>(SB), RODATA|NOPTR, $16

// func smoothSpanSSE2(d, c, s, nn *float64, n int)
//
// d[i] = 0.25 * (((c[i] + c[i+2]) + s[i]) + nn[i]) for i in [0, n), n a
// positive multiple of 4: two 2-wide groups per iteration, every access
// unaligned (row offsets are odd as often as even).
TEXT ·smoothSpanSSE2(SB), NOSPLIT, $0-40
	MOVQ   d+0(FP), DI
	MOVQ   c+8(FP), SI
	MOVQ   s+16(FP), R8
	MOVQ   nn+24(FP), R9
	MOVQ   n+32(FP), CX
	MOVUPD quarter<>(SB), X7
	XORQ   AX, AX

loop:
	MOVUPD (SI)(AX*8), X0   // c[i], c[i+1]
	MOVUPD 16(SI)(AX*8), X1 // c[i+2], c[i+3]
	MOVUPD 32(SI)(AX*8), X2 // c[i+4], c[i+5]
	ADDPD  X1, X0           // west + east, points i, i+1
	ADDPD  X2, X1           // west + east, points i+2, i+3
	MOVUPD (R8)(AX*8), X3
	MOVUPD 16(R8)(AX*8), X4
	ADDPD  X3, X0
	ADDPD  X4, X1
	MOVUPD (R9)(AX*8), X5
	MOVUPD 16(R9)(AX*8), X6
	ADDPD  X5, X0
	ADDPD  X6, X1
	MULPD  X7, X0
	MULPD  X7, X1
	MOVUPD X0, (DI)(AX*8)
	MOVUPD X1, 16(DI)(AX*8)
	ADDQ   $4, AX
	CMPQ   AX, CX
	JLT    loop
	RET
