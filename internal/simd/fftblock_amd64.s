//go:build !noasm

#include "textflag.h"

// FFT column-block kernels (fftblock.go): a block is n rows of 16
// complex128 lanes, 256 bytes a row. A YMM register holds two lanes,
// so a row is eight registers. Complex values sit as (re, im) pairs,
// so one register holds whole lanes and the kernel runs each lane's
// scalar arithmetic side by side. Multiply and add stay separate (no
// FMA); see fftblock.go for why every lane rounds as the scalar
// transform does.

// Sign masks: negOdd flips the imaginary part of each complex value,
// negEven the real part.
DATA negOdd<>+0x00(SB)/8, $0x0000000000000000
DATA negOdd<>+0x08(SB)/8, $0x8000000000000000
DATA negOdd<>+0x10(SB)/8, $0x0000000000000000
DATA negOdd<>+0x18(SB)/8, $0x8000000000000000
GLOBL negOdd<>(SB), RODATA|NOPTR, $32

DATA negEven<>+0x00(SB)/8, $0x8000000000000000
DATA negEven<>+0x08(SB)/8, $0x0000000000000000
DATA negEven<>+0x10(SB)/8, $0x8000000000000000
DATA negEven<>+0x18(SB)/8, $0x0000000000000000
GLOBL negEven<>(SB), RODATA|NOPTR, $32

// BFLY is one radix-2 butterfly on a register of lanes: with the
// twiddle broadcast as wr = (wr, wr) and wi = (−wi, wi),
// t = wr·hi + wi·swap(hi) = w·hi, then hi = lo − t and lo = lo + t.
// t0 and t1 are scratch.
#define BFLY(lo, hi, wr, wi, t0, t1) \
	VPERMILPD $0x55, hi, t0; \
	VMULPD    wr, hi, t1;    \
	VMULPD    wi, t0, t0;    \
	VADDPD    t0, t1, t1;    \
	VSUBPD    t1, lo, hi;    \
	VADDPD    t1, lo, lo

// S24 runs the size-2 and size-4 stages on one register column of four
// rows x0..x3 (rot flips the sign that makes the ∓j rotation).
#define S24(x0, x1, x2, x3, s0, s1, s2, s3, rot) \
	VADDPD    x1, x0, s0;    \
	VSUBPD    x1, x0, s1;    \
	VADDPD    x3, x2, s2;    \
	VSUBPD    x3, x2, s3;    \
	VPERMILPD $0x55, s3, s3; \
	VXORPD    rot, s3, s3;   \
	VADDPD    s2, s0, x0;    \
	VSUBPD    s2, s0, x2;    \
	VADDPD    s3, s1, x1;    \
	VSUBPD    s3, s1, x3

// S24Y runs stages 2 and 4 on the YMM column at byte offset off of the
// four rows at SI.
#define S24Y(off) \
	VMOVUPD off(SI), Y0;     \
	VMOVUPD 256+off(SI), Y1; \
	VMOVUPD 512+off(SI), Y2; \
	VMOVUPD 768+off(SI), Y3; \
	S24(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y13); \
	VMOVUPD Y0, off(SI);     \
	VMOVUPD Y1, 256+off(SI); \
	VMOVUPD Y2, 512+off(SI); \
	VMOVUPD Y3, 768+off(SI)

// PAIRY runs the paired stages (s, 2s) on the YMM column at byte offset
// off of rows DX, DX+R10, DI, DI+R10.
#define PAIRY(off) \
	VMOVUPD off(DX), Y0;        \
	VMOVUPD off(DX)(R10*1), Y1; \
	VMOVUPD off(DI), Y2;        \
	VMOVUPD off(DI)(R10*1), Y3; \
	BFLY(Y0, Y1, Y8, Y9, Y4, Y5);   \
	BFLY(Y2, Y3, Y8, Y9, Y4, Y5);   \
	BFLY(Y0, Y2, Y10, Y11, Y4, Y5); \
	BFLY(Y1, Y3, Y12, Y13, Y4, Y5); \
	VMOVUPD Y0, off(DX);        \
	VMOVUPD Y1, off(DX)(R10*1); \
	VMOVUPD Y2, off(DI);        \
	VMOVUPD Y3, off(DI)(R10*1)

// SINGLEY runs one stage on the YMM column at byte offset off of rows
// DX and DX+R10.
#define SINGLEY(off) \
	VMOVUPD off(DX), Y0;        \
	VMOVUPD off(DX)(R10*1), Y1; \
	BFLY(Y0, Y1, Y8, Y9, Y4, Y5); \
	VMOVUPD Y0, off(DX);        \
	VMOVUPD Y1, off(DX)(R10*1)

// func blockStagesAVX2(a, tw []complex128, inverse bool)
//
// Stages 2 and 4 run fused over each group of four rows. The twiddle
// stages then run in pairs (s, 2s) over groups of four rows
// r, r+s/2, r+s, r+3s/2 — the stage-s butterflies of the four rows,
// then their stage-2s butterflies — with a last single stage when the
// count is odd. Every butterfly is the one the scalar transform runs,
// on the same inputs. Each pass works on one two-lane column of a row
// at a time.
TEXT ·blockStagesAVX2(SB), NOSPLIT, $0-49
	MOVQ    a_base+0(FP), DI
	MOVQ    a_len+8(FP), CX
	SHRQ    $4, CX
	VMOVUPD negEven<>(SB), Y14
	VMOVUPD negOdd<>(SB), Y13
	CMPB    inverse+48(FP), $0
	JEQ     y2
	VMOVUPD Y14, Y13

y2:
	CMPQ CX, $2
	JNE  y24
	MOVQ $8, BX
	MOVQ DI, SI

y2loop:
	VMOVUPD (SI), Y0
	VMOVUPD 256(SI), Y1
	VADDPD  Y1, Y0, Y2
	VSUBPD  Y1, Y0, Y1
	VMOVUPD Y2, (SI)
	VMOVUPD Y1, 256(SI)
	ADDQ    $32, SI
	DECQ    BX
	JNZ     y2loop
	JMP     ydone

y24:
	MOVQ DI, SI
	MOVQ CX, BX
	SHRQ $2, BX

y24loop:
	S24Y(0)
	S24Y(32)
	S24Y(64)
	S24Y(96)
	S24Y(128)
	S24Y(160)
	S24Y(192)
	S24Y(224)
	ADDQ $1024, SI
	DECQ BX
	JNZ  y24loop

	MOVQ $8, R9

ystage:
	CMPQ R9, CX
	JGT  ydone
	MOVQ R9, R10
	SHLQ $7, R10
	MOVQ tw_base+24(FP), R11
	LEAQ -64(R11)(R9*8), R11
	LEAQ (R9)(R9*1), AX
	CMPQ AX, CX
	JGT  ysingle
	MOVQ CX, R8
	SHLQ $8, R8
	ADDQ DI, R8
	MOVQ DI, SI

ypblock:
	LEAQ (R11)(R9*8), R12
	LEAQ (R12)(R9*8), R13
	MOVQ R11, AX
	MOVQ SI, DX
	MOVQ R9, BX
	SHRQ $1, BX

ypk:
	VBROADCASTSD (AX), Y8
	VBROADCASTSD 8(AX), Y9
	VXORPD       Y14, Y9, Y9
	VBROADCASTSD (R12), Y10
	VBROADCASTSD 8(R12), Y11
	VXORPD       Y14, Y11, Y11
	VBROADCASTSD (R13), Y12
	VBROADCASTSD 8(R13), Y13
	VXORPD       Y14, Y13, Y13
	LEAQ         (DX)(R10*2), DI
	PAIRY(0)
	PAIRY(32)
	PAIRY(64)
	PAIRY(96)
	PAIRY(128)
	PAIRY(160)
	PAIRY(192)
	PAIRY(224)
	ADDQ         $16, AX
	ADDQ         $16, R12
	ADDQ         $16, R13
	ADDQ         $256, DX
	DECQ         BX
	JNZ          ypk

	LEAQ (SI)(R10*4), SI
	CMPQ SI, R8
	JLT  ypblock

	MOVQ a_base+0(FP), DI
	SHLQ $2, R9
	JMP  ystage

ysingle:
	MOVQ R11, AX
	MOVQ DI, DX
	MOVQ R9, BX
	SHRQ $1, BX

ysk:
	VBROADCASTSD (AX), Y8
	VBROADCASTSD 8(AX), Y9
	VXORPD       Y14, Y9, Y9
	SINGLEY(0)
	SINGLEY(32)
	SINGLEY(64)
	SINGLEY(96)
	SINGLEY(128)
	SINGLEY(160)
	SINGLEY(192)
	SINGLEY(224)
	ADDQ         $16, AX
	ADDQ         $256, DX
	DECQ         BX
	JNZ          ysk

ydone:
	VZEROUPPER
	RET
