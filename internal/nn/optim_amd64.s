#include "textflag.h"

// func adamPairs(data, grad, m, v []float64, k *adamCoef)
//
// Each Go-syntax OP src, dst computes dst = dst op src and, when both
// operands are NaN, returns dst's NaN: the destinations are the ones the Go
// compiler picks for adamLoop's scalar loop, so NaN payloads match too.
// Every multiply, add, divide and square root rounds on its own.
TEXT ·adamPairs(SB), NOSPLIT, $0-104
	MOVQ data_base+0(FP), DI
	MOVQ data_len+8(FP), CX
	MOVQ grad_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ k+96(FP), AX
	SHRQ $1, CX                 // pairs
	JEQ  done
	MOVSD 0(AX), X8             // β1
	UNPCKLPD X8, X8
	MOVSD 8(AX), X9             // 1−β1
	UNPCKLPD X9, X9
	MOVSD 16(AX), X10           // β2
	UNPCKLPD X10, X10
	MOVSD 24(AX), X11           // 1−β2
	UNPCKLPD X11, X11
	MOVSD 32(AX), X12           // bc1
	UNPCKLPD X12, X12
	MOVSD 40(AX), X13           // bc2
	UNPCKLPD X13, X13
	MOVSD 48(AX), X14           // lr
	UNPCKLPD X14, X14
	MOVSD 56(AX), X15           // ε
	UNPCKLPD X15, X15
	XORQ BX, BX                 // byte offset of the pair
	PCALIGN $64

loop:
	MOVUPD (SI)(BX*1), X0       // g
	MOVUPD (R8)(BX*1), X1
	MULPD  X8, X1               // m·β1
	MOVAPD X9, X2
	MULPD  X0, X2               // (1−β1)·g
	ADDPD  X1, X2               // m = (1−β1)·g + m·β1
	MOVUPD X2, (R8)(BX*1)
	MOVUPD (R9)(BX*1), X3
	MULPD  X10, X3              // v·β2
	MOVAPD X11, X4
	MULPD  X0, X4               // (1−β2)·g
	MULPD  X0, X4               // (1−β2)·g·g
	ADDPD  X3, X4               // v = (1−β2)·g·g + v·β2
	MOVUPD X4, (R9)(BX*1)
	DIVPD  X12, X2              // m̂ = m/bc1
	DIVPD  X13, X4              // v̂ = v/bc2
	SQRTPD X4, X4
	MULPD  X14, X2              // m̂·lr
	ADDPD  X15, X4              // √v̂ + ε
	DIVPD  X4, X2
	MOVUPD (DI)(BX*1), X5
	SUBPD  X2, X5               // θ − (m̂·lr)/(√v̂ + ε)
	MOVUPD X5, (DI)(BX*1)
	ADDQ   $16, BX
	DECQ   CX
	JNE    loop

done:
	RET
