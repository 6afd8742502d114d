#include "textflag.h"

// MADD adds a[i][k]·b[k][j+off/8 : j+off/8+2] to the accumulator acc: two
// columns of two independent chains in one MULPD and one ADDPD. X0 holds
// a[i][k] in both lanes and AX points at b[k][j]. The product is a·b and
// the sum acc+product, the operand order of the scalar loop
// `s += float64(av * bv)`, so even a NaN payload comes out the same. No
// FMA: each multiply and each add rounds.
#define MADD(off, acc) \
	MOVUPD off(AX), X1; \
	MOVAPD X0, X2;      \
	MULPD  X1, X2;      \
	ADDPD  X2, acc

// BROADCAST loads k = idx[t] (t in CX), puts a[i][k] in both lanes of X0
// and points AX at b[k][j] (the tile's columns start at BX).
#define BROADCAST \
	MOVLQSX  (R8)(CX*4), AX; \
	MOVSD    (SI)(AX*8), X0; \
	UNPCKLPD X0, X0;         \
	IMULQ    R11, AX;        \
	ADDQ     BX, AX

// func rowAxpy(drow, arow, b []float64, idx []int32, p8, stride int)
TEXT ·rowAxpy(SB), NOSPLIT, $0-112
	MOVQ drow_base+0(FP), DI
	MOVQ arow_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	MOVQ idx_base+72(FP), R8
	MOVQ idx_len+80(FP), R9
	TESTQ R9, R9
	JEQ  done
	MOVQ p8+96(FP), R10
	MOVQ stride+104(FP), R11
	SHLQ $3, R11             // a row of b in bytes
	LEAQ (DI)(R10*8), R12    // end of the tiled part of drow

tile16:
	LEAQ 128(DI), AX
	CMPQ AX, R12
	JHI  tile8
	MOVUPD 0(DI), X8
	MOVUPD 16(DI), X9
	MOVUPD 32(DI), X10
	MOVUPD 48(DI), X11
	MOVUPD 64(DI), X12
	MOVUPD 80(DI), X13
	MOVUPD 96(DI), X14
	MOVUPD 112(DI), X15
	XORQ CX, CX
	PCALIGN $64

loop16:
	BROADCAST
	MADD(0, X8)
	MADD(16, X9)
	MADD(32, X10)
	MADD(48, X11)
	MADD(64, X12)
	MADD(80, X13)
	MADD(96, X14)
	MADD(112, X15)
	INCQ CX
	CMPQ CX, R9
	JLT  loop16

	MOVUPD X8, 0(DI)
	MOVUPD X9, 16(DI)
	MOVUPD X10, 32(DI)
	MOVUPD X11, 48(DI)
	MOVUPD X12, 64(DI)
	MOVUPD X13, 80(DI)
	MOVUPD X14, 96(DI)
	MOVUPD X15, 112(DI)
	ADDQ $128, DI
	ADDQ $128, BX
	JMP  tile16

tile8:
	CMPQ DI, R12
	JAE  done
	MOVUPD 0(DI), X8
	MOVUPD 16(DI), X9
	MOVUPD 32(DI), X10
	MOVUPD 48(DI), X11
	XORQ CX, CX
	PCALIGN $64

loop8:
	BROADCAST
	MADD(0, X8)
	MADD(16, X9)
	MADD(32, X10)
	MADD(48, X11)
	INCQ CX
	CMPQ CX, R9
	JLT  loop8

	MOVUPD X8, 0(DI)
	MOVUPD X9, 16(DI)
	MOVUPD X10, 32(DI)
	MOVUPD X11, 48(DI)

done:
	RET
