//go:build amd64 && !race

#include "textflag.h"

// func rowFwdSSE2(cur, prev *float64, n int, mi float64)
//
// cur[j] -= mi * prev[j] for j in [0, n), n a positive multiple of 4.
// Every access is unaligned: row offsets are odd as often as even.
TEXT ·rowFwdSSE2(SB), NOSPLIT, $0-32
	MOVQ     cur+0(FP), DI
	MOVQ     prev+8(FP), SI
	MOVQ     n+16(FP), CX
	MOVSD    mi+24(FP), X7
	UNPCKLPD X7, X7
	XORQ     AX, AX

fwd:
	MOVUPD (SI)(AX*8), X0
	MOVUPD 16(SI)(AX*8), X1
	MOVUPD (DI)(AX*8), X2
	MOVUPD 16(DI)(AX*8), X3
	MULPD  X7, X0           // mi * prev
	MULPD  X7, X1
	SUBPD  X0, X2           // cur - mi*prev
	SUBPD  X1, X3
	MOVUPD X2, (DI)(AX*8)
	MOVUPD X3, 16(DI)(AX*8)
	ADDQ   $4, AX
	CMPQ   AX, CX
	JLT    fwd
	RET

// func rowBackSSE2(cur, prev *float64, n int, c, bi float64)
//
// cur[j] = (cur[j] - c*prev[j]) / bi for j in [0, n), n a positive
// multiple of 4.  The two DIVPD per iteration are the loop's cost: the
// divider retires one every 4 cycles, two quotients each.
TEXT ·rowBackSSE2(SB), NOSPLIT, $0-40
	MOVQ     cur+0(FP), DI
	MOVQ     prev+8(FP), SI
	MOVQ     n+16(FP), CX
	MOVSD    c+24(FP), X6
	UNPCKLPD X6, X6
	MOVSD    bi+32(FP), X7
	UNPCKLPD X7, X7
	XORQ     AX, AX

back:
	MOVUPD (SI)(AX*8), X0
	MOVUPD 16(SI)(AX*8), X1
	MOVUPD (DI)(AX*8), X2
	MOVUPD 16(DI)(AX*8), X3
	MULPD  X6, X0           // c * prev
	MULPD  X6, X1
	SUBPD  X0, X2           // cur - c*prev
	SUBPD  X1, X3
	DIVPD  X7, X2
	DIVPD  X7, X3
	MOVUPD X2, (DI)(AX*8)
	MOVUPD X3, 16(DI)(AX*8)
	ADDQ   $4, AX
	CMPQ   AX, CX
	JLT    back
	RET

// The lockstep kernel keeps element i-1 (forward) or i+1 (backward) of a
// pair of lines in the two lanes of X, lines lo and hi.  One step loads
// element i of both into T, combines, stores and moves T to X; X8 holds
// the broadcast m[i] or bp[i], X15 the broadcast c.
#define LOAD(lo, hi, X) \
	MOVSD  lo, X; \
	MOVHPD hi, X

#define STORE(X, lo, hi) \
	MOVLPD X, lo; \
	MOVHPD X, hi

#define FWD(lo, hi, X, T) \
	MULPD  X8, X; \
	LOAD(lo, hi, T); \
	SUBPD  X, T; \
	STORE(T, lo, hi); \
	MOVAPD T, X

#define BACK(lo, hi, X, T) \
	MULPD  X15, X; \
	LOAD(lo, hi, T); \
	SUBPD  X, T; \
	DIVPD  X8, T; \
	STORE(T, lo, hi); \
	MOVAPD T, X

#define DIVLAST(lo, hi, X) \
	DIVPD  X8, X; \
	STORE(X, lo, hi)

#define BCAST(mem, X) \
	MOVSD    mem, X; \
	UNPCKLPD X, X

// func solveLanesSSE2(x *float64, lineStride int, m, bp *float64, n int, c float64)
//
// Solves the 8 lines x, x+lineStride, ... of n >= 1 contiguous elements
// each, two lines to a register.  R8 and R9 walk element i of lines 0 and
// 4; BX and DX are one and three line strides in bytes.
TEXT ·solveLanesSSE2(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), R8
	MOVQ lineStride+8(FP), BX
	MOVQ m+16(FP), SI
	MOVQ bp+24(FP), DI
	MOVQ n+32(FP), CX
	BCAST(c+40(FP), X15)
	SHLQ $3, BX
	LEAQ (BX)(BX*2), DX
	LEAQ (R8)(BX*4), R9

	LOAD((R8), (R8)(BX*1), X0)
	LOAD((R8)(BX*2), (R8)(DX*1), X1)
	LOAD((R9), (R9)(BX*1), X2)
	LOAD((R9)(BX*2), (R9)(DX*1), X3)

	MOVQ $1, AX
	JMP  fwdtest

fwdstep:
	ADDQ $8, R8
	ADDQ $8, R9
	BCAST((SI)(AX*8), X8)
	FWD((R8), (R8)(BX*1), X0, X9)
	FWD((R8)(BX*2), (R8)(DX*1), X1, X10)
	FWD((R9), (R9)(BX*1), X2, X11)
	FWD((R9)(BX*2), (R9)(DX*1), X3, X12)
	INCQ AX

fwdtest:
	CMPQ AX, CX
	JLT  fwdstep

	BCAST(-8(DI)(CX*8), X8)
	DIVLAST((R8), (R8)(BX*1), X0)
	DIVLAST((R8)(BX*2), (R8)(DX*1), X1)
	DIVLAST((R9), (R9)(BX*1), X2)
	DIVLAST((R9)(BX*2), (R9)(DX*1), X3)

	LEAQ -2(CX), AX
	JMP  backtest

backstep:
	SUBQ $8, R8
	SUBQ $8, R9
	BCAST((DI)(AX*8), X8)
	BACK((R8), (R8)(BX*1), X0, X9)
	BACK((R8)(BX*2), (R8)(DX*1), X1, X10)
	BACK((R9), (R9)(BX*1), X2, X11)
	BACK((R9)(BX*2), (R9)(DX*1), X3, X12)
	DECQ AX

backtest:
	TESTQ AX, AX
	JGE   backstep
	RET
