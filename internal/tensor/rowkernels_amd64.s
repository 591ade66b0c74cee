#include "textflag.h"

// AVX2 row kernels (see rowkernels.go). Lanes run across independent output
// columns only, with separate VMULPD/VADDPD (never a fused multiply-add), and
// every lane evaluates the generic kernel's expression in its order, so each
// output element gets the same IEEE operations as the scalar Go loop. Column
// tails use the VEX scalar forms of the same operations.

// func axpy4AVX2(o, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ         o_base+0(FP), DI
	MOVQ         o_len+8(FP), CX
	MOVQ         b0_base+24(FP), R8
	MOVQ         b1_base+48(FP), R9
	MOVQ         b2_base+72(FP), R10
	MOVQ         b3_base+96(FP), R11
	VBROADCASTSD a0+120(FP), Y0
	VBROADCASTSD a1+128(FP), Y1
	VBROADCASTSD a2+136(FP), Y2
	VBROADCASTSD a3+144(FP), Y3
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $~3, BX

axpy4Loop:
	CMPQ    AX, BX
	JAE     axpy4Tail
	VMULPD  (R8)(AX*8), Y0, Y4  // a0*b0
	VMULPD  (R9)(AX*8), Y1, Y5  // a1*b1
	VADDPD  Y5, Y4, Y4
	VMULPD  (R10)(AX*8), Y2, Y5 // a2*b2
	VADDPD  Y5, Y4, Y4
	VMULPD  (R11)(AX*8), Y3, Y5 // a3*b3
	VADDPD  Y5, Y4, Y4
	VADDPD  (DI)(AX*8), Y4, Y4  // o + t
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     axpy4Loop

axpy4Tail:
	CMPQ   AX, CX
	JAE    axpy4Done
	VMULSD (R8)(AX*8), X0, X4
	VMULSD (R9)(AX*8), X1, X5
	VADDSD X5, X4, X4
	VMULSD (R10)(AX*8), X2, X5
	VADDSD X5, X4, X4
	VMULSD (R11)(AX*8), X3, X5
	VADDSD X5, X4, X4
	VADDSD (DI)(AX*8), X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    axpy4Tail

axpy4Done:
	VZEROUPPER
	RET

// func axpy4x2AVX2(o, o2, b0, b1, b2, b3 []float64, a0, a1, a2, a3, c0, c1, c2, c3 float64)
TEXT ·axpy4x2AVX2(SB), NOSPLIT, $0-208
	MOVQ         o_base+0(FP), DI
	MOVQ         o_len+8(FP), CX
	MOVQ         o2_base+24(FP), SI
	MOVQ         b0_base+48(FP), R8
	MOVQ         b1_base+72(FP), R9
	MOVQ         b2_base+96(FP), R10
	MOVQ         b3_base+120(FP), R11
	VBROADCASTSD a0+144(FP), Y0
	VBROADCASTSD a1+152(FP), Y1
	VBROADCASTSD a2+160(FP), Y2
	VBROADCASTSD a3+168(FP), Y3
	VBROADCASTSD c0+176(FP), Y4
	VBROADCASTSD c1+184(FP), Y5
	VBROADCASTSD c2+192(FP), Y6
	VBROADCASTSD c3+200(FP), Y7
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $~3, BX

axpy4x2Loop:
	CMPQ    AX, BX
	JAE     axpy4x2Tail
	VMOVUPD (R8)(AX*8), Y8
	VMULPD  Y8, Y0, Y9          // a0*b0
	VMULPD  Y8, Y4, Y10         // c0*b0
	VMOVUPD (R9)(AX*8), Y8
	VMULPD  Y8, Y1, Y11
	VADDPD  Y11, Y9, Y9
	VMULPD  Y8, Y5, Y12
	VADDPD  Y12, Y10, Y10
	VMOVUPD (R10)(AX*8), Y8
	VMULPD  Y8, Y2, Y11
	VADDPD  Y11, Y9, Y9
	VMULPD  Y8, Y6, Y12
	VADDPD  Y12, Y10, Y10
	VMOVUPD (R11)(AX*8), Y8
	VMULPD  Y8, Y3, Y11
	VADDPD  Y11, Y9, Y9
	VMULPD  Y8, Y7, Y12
	VADDPD  Y12, Y10, Y10
	VADDPD  (DI)(AX*8), Y9, Y9  // o + t
	VMOVUPD Y9, (DI)(AX*8)
	VADDPD  (SI)(AX*8), Y10, Y10 // o2 + t2
	VMOVUPD Y10, (SI)(AX*8)
	ADDQ    $4, AX
	JMP     axpy4x2Loop

axpy4x2Tail:
	CMPQ   AX, CX
	JAE    axpy4x2Done
	VMOVSD (R8)(AX*8), X8
	VMULSD X8, X0, X9
	VMULSD X8, X4, X10
	VMOVSD (R9)(AX*8), X8
	VMULSD X8, X1, X11
	VADDSD X11, X9, X9
	VMULSD X8, X5, X12
	VADDSD X12, X10, X10
	VMOVSD (R10)(AX*8), X8
	VMULSD X8, X2, X11
	VADDSD X11, X9, X9
	VMULSD X8, X6, X12
	VADDSD X12, X10, X10
	VMOVSD (R11)(AX*8), X8
	VMULSD X8, X3, X11
	VADDSD X11, X9, X9
	VMULSD X8, X7, X12
	VADDSD X12, X10, X10
	VADDSD (DI)(AX*8), X9, X9
	VMOVSD X9, (DI)(AX*8)
	VADDSD (SI)(AX*8), X10, X10
	VMOVSD X10, (SI)(AX*8)
	INCQ   AX
	JMP    axpy4x2Tail

axpy4x2Done:
	VZEROUPPER
	RET

// func dot4AVX2(o, a, p []float64)
//
// Lane l accumulates a[k]*p[4k+l] into an even (Y0) and an odd (Y1)
// accumulator and a tail (Y2), all starting at +0, then stores
// (even + odd) + tail.
TEXT ·dot4AVX2(SB), NOSPLIT, $0-72
	MOVQ   o_base+0(FP), DI
	MOVQ   a_base+24(FP), SI
	MOVQ   a_len+32(FP), CX
	MOVQ   p_base+48(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $~1, BX

dot4Loop:
	CMPQ         AX, BX
	JAE          dot4Tail
	VBROADCASTSD (SI)(AX*8), Y3
	VMULPD       (DX), Y3, Y3
	VADDPD       Y3, Y0, Y0
	VBROADCASTSD 8(SI)(AX*8), Y4
	VMULPD       32(DX), Y4, Y4
	VADDPD       Y4, Y1, Y1
	ADDQ         $64, DX
	ADDQ         $2, AX
	JMP          dot4Loop

dot4Tail:
	CMPQ         AX, CX
	JAE          dot4Done
	VBROADCASTSD (SI)(AX*8), Y3
	VMULPD       (DX), Y3, Y3
	VADDPD       Y3, Y2, Y2

dot4Done:
	VADDPD  Y1, Y0, Y0
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func dot4x2AVX2(o, o2, a, a2, p []float64)
//
// dot4AVX2 for two rows sharing each panel load: Y0/Y1/Y4 are the even,
// odd and tail accumulators of (o, a), Y2/Y3/Y5 those of (o2, a2).
TEXT ·dot4x2AVX2(SB), NOSPLIT, $0-120
	MOVQ   o_base+0(FP), DI
	MOVQ   o2_base+24(FP), R8
	MOVQ   a_base+48(FP), SI
	MOVQ   a_len+56(FP), CX
	MOVQ   a2_base+72(FP), R9
	MOVQ   p_base+96(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $~1, BX

dot4x2Loop:
	CMPQ         AX, BX
	JAE          dot4x2Tail
	VMOVUPD      (DX), Y6
	VMOVUPD      32(DX), Y7
	VBROADCASTSD (SI)(AX*8), Y8
	VMULPD       Y6, Y8, Y8
	VADDPD       Y8, Y0, Y0
	VBROADCASTSD 8(SI)(AX*8), Y9
	VMULPD       Y7, Y9, Y9
	VADDPD       Y9, Y1, Y1
	VBROADCASTSD (R9)(AX*8), Y10
	VMULPD       Y6, Y10, Y10
	VADDPD       Y10, Y2, Y2
	VBROADCASTSD 8(R9)(AX*8), Y11
	VMULPD       Y7, Y11, Y11
	VADDPD       Y11, Y3, Y3
	ADDQ         $64, DX
	ADDQ         $2, AX
	JMP          dot4x2Loop

dot4x2Tail:
	CMPQ         AX, CX
	JAE          dot4x2Done
	VMOVUPD      (DX), Y6
	VBROADCASTSD (SI)(AX*8), Y8
	VMULPD       Y6, Y8, Y8
	VADDPD       Y8, Y4, Y4
	VBROADCASTSD (R9)(AX*8), Y10
	VMULPD       Y6, Y10, Y10
	VADDPD       Y10, Y5, Y5

dot4x2Done:
	VADDPD  Y1, Y0, Y0
	VADDPD  Y4, Y0, Y0
	VMOVUPD Y0, (DI)
	VADDPD  Y3, Y2, Y2
	VADDPD  Y5, Y2, Y2
	VMOVUPD Y2, (R8)
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
