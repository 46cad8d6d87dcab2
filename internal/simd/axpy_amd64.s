//go:build !noasm

#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpy32AVX(alpha float32, x, y []float32)
//
// y[i] += alpha*x[i], 16 floats (two 8-lane VEX ops) per main-loop
// iteration. Multiply and add are separate instructions — no FMA — so
// every element rounds exactly like the pure-Go fallback and the two
// paths are bit-identical (DESIGN.md §13).
TEXT ·axpy32AVX(SB), NOSPLIT, $0-56
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         y_base+32(FP), DI
	MOVQ         y_len+40(FP), CX
	MOVQ         CX, BX
	SHRQ         $4, BX
	JZ           tail8

loop16:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y2, Y2
	VADDPS  (DI), Y1, Y1
	VADDPS  32(DI), Y2, Y2
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    BX
	JNZ     loop16

tail8:
	TESTQ   $8, CX
	JZ      tail4
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI

tail4:
	TESTQ   $4, CX
	JZ      tail1
	VMOVUPS (SI), X1
	VMULPS  X0, X1, X1
	VADDPS  (DI), X1, X1
	VMOVUPS X1, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DI

tail1:
	ANDQ $3, CX
	JZ   done32

scalar32:
	VMOVSS (SI), X1
	VMULSS X0, X1, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNZ    scalar32

done32:
	VZEROUPPER
	RET

// func axpy64AVX(alpha float64, x, y []float64)
//
// y[i] += alpha*x[i], 8 doubles (two 4-lane VEX ops) per main-loop
// iteration; separate multiply and add, bit-identical to the fallback.
TEXT ·axpy64AVX(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         y_base+32(FP), DI
	MOVQ         y_len+40(FP), CX
	MOVQ         CX, BX
	SHRQ         $3, BX
	JZ           tail4d

loop8d:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    BX
	JNZ     loop8d

tail4d:
	TESTQ   $4, CX
	JZ      tail2d
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI

tail2d:
	TESTQ   $2, CX
	JZ      tail1d
	VMOVUPD (SI), X1
	VMULPD  X0, X1, X1
	VADDPD  (DI), X1, X1
	VMOVUPD X1, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DI

tail1d:
	ANDQ $1, CX
	JZ   done64
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)

done64:
	VZEROUPPER
	RET

// func macRow32AVX(taps, noise, dst []float32)
//
// dst[i] += Σ_a taps[a]*noise[a+i]: the whole tap row is applied per
// call with the destination accumulators held in YMM registers — 32
// floats (four 8-lane vectors) per main-loop block, then an 8-float
// block, then scalars. Multiply and add stay separate (no FMA) and the
// per-output adds run in tap order, so the result is bit-identical to
// composing axpy32 per tap (DESIGN.md §13). The caller guarantees
// len(noise) >= len(taps)-1+len(dst).
TEXT ·macRow32AVX(SB), NOSPLIT, $0-72
	MOVQ taps_base+0(FP), R8
	MOVQ taps_len+8(FP), R9
	MOVQ noise_base+24(FP), R10
	MOVQ dst_base+48(FP), DI
	MOVQ dst_len+56(FP), CX

mrblk32:
	CMPQ    CX, $32
	JL      mrblk8
	VMOVUPS (DI), Y1
	VMOVUPS 32(DI), Y2
	VMOVUPS 64(DI), Y3
	VMOVUPS 96(DI), Y4
	MOVQ    R8, SI
	MOVQ    R10, DX
	MOVQ    R9, BX
	TESTQ   BX, BX
	JZ      mrst32

mrtap32:
	VBROADCASTSS (SI), Y0
	VMULPS       (DX), Y0, Y5
	VMULPS       32(DX), Y0, Y6
	VMULPS       64(DX), Y0, Y7
	VMULPS       96(DX), Y0, Y8
	VADDPS       Y5, Y1, Y1
	VADDPS       Y6, Y2, Y2
	VADDPS       Y7, Y3, Y3
	VADDPS       Y8, Y4, Y4
	ADDQ         $4, SI
	ADDQ         $4, DX
	DECQ         BX
	JNZ          mrtap32

mrst32:
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R10
	SUBQ    $32, CX
	JMP     mrblk32

mrblk8:
	CMPQ    CX, $8
	JL      mrtail
	VMOVUPS (DI), Y1
	MOVQ    R8, SI
	MOVQ    R10, DX
	MOVQ    R9, BX
	TESTQ   BX, BX
	JZ      mrst8

mrtap8:
	VBROADCASTSS (SI), Y0
	VMULPS       (DX), Y0, Y5
	VADDPS       Y5, Y1, Y1
	ADDQ         $4, SI
	ADDQ         $4, DX
	DECQ         BX
	JNZ          mrtap8

mrst8:
	VMOVUPS Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R10
	SUBQ    $8, CX
	JMP     mrblk8

mrtail:
	TESTQ CX, CX
	JZ    mrdone32

mrscalar:
	VMOVSS (DI), X1
	MOVQ   R8, SI
	MOVQ   R10, DX
	MOVQ   R9, BX
	TESTQ  BX, BX
	JZ     mrstsc

mrtapsc:
	VMOVSS (SI), X0
	VMULSS (DX), X0, X5
	VADDSS X5, X1, X1
	ADDQ   $4, SI
	ADDQ   $4, DX
	DECQ   BX
	JNZ    mrtapsc

mrstsc:
	VMOVSS X1, (DI)
	ADDQ   $4, DI
	ADDQ   $4, R10
	DECQ   CX
	JNZ    mrscalar

mrdone32:
	VZEROUPPER
	RET

// func macRow64AVX(taps, noise, dst []float64)
//
// Float64 fused MAC row: 16 doubles (four 4-lane vectors) per main
// block, then a 4-double block, then scalars. Separate multiply and
// add, per-output adds in tap order — bit-identical to composing
// axpy64 per tap, which keeps the reference engine byte-stable.
TEXT ·macRow64AVX(SB), NOSPLIT, $0-72
	MOVQ taps_base+0(FP), R8
	MOVQ taps_len+8(FP), R9
	MOVQ noise_base+24(FP), R10
	MOVQ dst_base+48(FP), DI
	MOVQ dst_len+56(FP), CX

mdblk16:
	CMPQ    CX, $16
	JL      mdblk4
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VMOVUPD 64(DI), Y3
	VMOVUPD 96(DI), Y4
	MOVQ    R8, SI
	MOVQ    R10, DX
	MOVQ    R9, BX
	TESTQ   BX, BX
	JZ      mdst16

mdtap16:
	VBROADCASTSD (SI), Y0
	VMULPD       (DX), Y0, Y5
	VMULPD       32(DX), Y0, Y6
	VMULPD       64(DX), Y0, Y7
	VMULPD       96(DX), Y0, Y8
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	VADDPD       Y8, Y4, Y4
	ADDQ         $8, SI
	ADDQ         $8, DX
	DECQ         BX
	JNZ          mdtap16

mdst16:
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R10
	SUBQ    $16, CX
	JMP     mdblk16

mdblk4:
	CMPQ    CX, $4
	JL      mdtail
	VMOVUPD (DI), Y1
	MOVQ    R8, SI
	MOVQ    R10, DX
	MOVQ    R9, BX
	TESTQ   BX, BX
	JZ      mdst4

mdtap4:
	VBROADCASTSD (SI), Y0
	VMULPD       (DX), Y0, Y5
	VADDPD       Y5, Y1, Y1
	ADDQ         $8, SI
	ADDQ         $8, DX
	DECQ         BX
	JNZ          mdtap4

mdst4:
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R10
	SUBQ    $4, CX
	JMP     mdblk4

mdtail:
	TESTQ CX, CX
	JZ    mddone

mdscalar:
	VMOVSD (DI), X1
	MOVQ   R8, SI
	MOVQ   R10, DX
	MOVQ   R9, BX
	TESTQ  BX, BX
	JZ     mdstsc

mdtapsc:
	VMOVSD (SI), X0
	VMULSD (DX), X0, X5
	VADDSD X5, X1, X1
	ADDQ   $8, SI
	ADDQ   $8, DX
	DECQ   BX
	JNZ    mdtapsc

mdstsc:
	VMOVSD X1, (DI)
	ADDQ   $8, DI
	ADDQ   $8, R10
	DECQ   CX
	JNZ    mdscalar

mddone:
	VZEROUPPER
	RET

// func macRow64AVX512(taps, noise, dst []float64)
//
// The AVX-512 float64 MAC row: 32 doubles (four 8-lane ZMM vectors)
// per main block, then 8-double blocks, then one masked block for the
// last 1–7. Like the VEX kernels it multiplies and adds separately (no
// FMA) and adds taps in order, so every lane rounds exactly as the
// pure-Go loop does. The masked tail loads with zeroing; masked-off
// lanes never fault and are never stored, so reads past the end of
// noise or dst are suppressed.
TEXT ·macRow64AVX512(SB), NOSPLIT, $0-72
	MOVQ taps_base+0(FP), R8
	MOVQ taps_len+8(FP), R9
	MOVQ noise_base+24(FP), R10
	MOVQ dst_base+48(FP), DI
	MOVQ dst_len+56(FP), CX

zdblk32:
	CMPQ    CX, $32
	JL      zdblk8
	VMOVUPD (DI), Z1
	VMOVUPD 64(DI), Z2
	VMOVUPD 128(DI), Z3
	VMOVUPD 192(DI), Z4
	MOVQ    R8, SI
	MOVQ    R10, DX
	MOVQ    R9, BX
	TESTQ   BX, BX
	JZ      zdst32

zdtap32:
	VBROADCASTSD (SI), Z0
	VMULPD       (DX), Z0, Z5
	VMULPD       64(DX), Z0, Z6
	VMULPD       128(DX), Z0, Z7
	VMULPD       192(DX), Z0, Z8
	VADDPD       Z5, Z1, Z1
	VADDPD       Z6, Z2, Z2
	VADDPD       Z7, Z3, Z3
	VADDPD       Z8, Z4, Z4
	ADDQ         $8, SI
	ADDQ         $8, DX
	DECQ         BX
	JNZ          zdtap32

zdst32:
	VMOVUPD Z1, (DI)
	VMOVUPD Z2, 64(DI)
	VMOVUPD Z3, 128(DI)
	VMOVUPD Z4, 192(DI)
	ADDQ    $256, DI
	ADDQ    $256, R10
	SUBQ    $32, CX
	JMP     zdblk32

zdblk8:
	CMPQ    CX, $8
	JL      zdtail
	VMOVUPD (DI), Z1
	MOVQ    R8, SI
	MOVQ    R10, DX
	MOVQ    R9, BX
	TESTQ   BX, BX
	JZ      zdst8

zdtap8:
	VBROADCASTSD (SI), Z0
	VMULPD       (DX), Z0, Z5
	VADDPD       Z5, Z1, Z1
	ADDQ         $8, SI
	ADDQ         $8, DX
	DECQ         BX
	JNZ          zdtap8

zdst8:
	VMOVUPD Z1, (DI)
	ADDQ    $64, DI
	ADDQ    $64, R10
	SUBQ    $8, CX
	JMP     zdblk8

zdtail:
	TESTQ     CX, CX
	JZ        zddone
	MOVQ      $1, AX
	SHLQ      CX, AX
	DECQ      AX
	KMOVW     AX, K1
	VMOVUPD.Z (DI), K1, Z1
	MOVQ      R8, SI
	MOVQ      R10, DX
	MOVQ      R9, BX
	TESTQ     BX, BX
	JZ        zdsttail

zdtaptail:
	VBROADCASTSD (SI), Z0
	VMOVUPD.Z    (DX), K1, Z5
	VMULPD       Z5, Z0, Z5
	VADDPD       Z5, Z1, Z1
	ADDQ         $8, SI
	ADDQ         $8, DX
	DECQ         BX
	JNZ          zdtaptail

zdsttail:
	VMOVUPD Z1, K1, (DI)

zddone:
	VZEROUPPER
	RET

// func macRow32AVX512(taps, noise, dst []float32)
//
// The AVX-512 float32 MAC row: 64 floats (four 16-lane ZMM vectors)
// per main block, then 16-float blocks, then one masked block for the
// last 1–15; separate multiply and add, taps in order, bit-identical
// to the pure-Go loop (see macRow64AVX512).
TEXT ·macRow32AVX512(SB), NOSPLIT, $0-72
	MOVQ taps_base+0(FP), R8
	MOVQ taps_len+8(FP), R9
	MOVQ noise_base+24(FP), R10
	MOVQ dst_base+48(FP), DI
	MOVQ dst_len+56(FP), CX

zsblk64:
	CMPQ    CX, $64
	JL      zsblk16
	VMOVUPS (DI), Z1
	VMOVUPS 64(DI), Z2
	VMOVUPS 128(DI), Z3
	VMOVUPS 192(DI), Z4
	MOVQ    R8, SI
	MOVQ    R10, DX
	MOVQ    R9, BX
	TESTQ   BX, BX
	JZ      zsst64

zstap64:
	VBROADCASTSS (SI), Z0
	VMULPS       (DX), Z0, Z5
	VMULPS       64(DX), Z0, Z6
	VMULPS       128(DX), Z0, Z7
	VMULPS       192(DX), Z0, Z8
	VADDPS       Z5, Z1, Z1
	VADDPS       Z6, Z2, Z2
	VADDPS       Z7, Z3, Z3
	VADDPS       Z8, Z4, Z4
	ADDQ         $4, SI
	ADDQ         $4, DX
	DECQ         BX
	JNZ          zstap64

zsst64:
	VMOVUPS Z1, (DI)
	VMOVUPS Z2, 64(DI)
	VMOVUPS Z3, 128(DI)
	VMOVUPS Z4, 192(DI)
	ADDQ    $256, DI
	ADDQ    $256, R10
	SUBQ    $64, CX
	JMP     zsblk64

zsblk16:
	CMPQ    CX, $16
	JL      zstail
	VMOVUPS (DI), Z1
	MOVQ    R8, SI
	MOVQ    R10, DX
	MOVQ    R9, BX
	TESTQ   BX, BX
	JZ      zsst16

zstap16:
	VBROADCASTSS (SI), Z0
	VMULPS       (DX), Z0, Z5
	VADDPS       Z5, Z1, Z1
	ADDQ         $4, SI
	ADDQ         $4, DX
	DECQ         BX
	JNZ          zstap16

zsst16:
	VMOVUPS Z1, (DI)
	ADDQ    $64, DI
	ADDQ    $64, R10
	SUBQ    $16, CX
	JMP     zsblk16

zstail:
	TESTQ     CX, CX
	JZ        zsdone
	MOVQ      $1, AX
	SHLQ      CX, AX
	DECQ      AX
	KMOVW     AX, K1
	VMOVUPS.Z (DI), K1, Z1
	MOVQ      R8, SI
	MOVQ      R10, DX
	MOVQ      R9, BX
	TESTQ     BX, BX
	JZ        zssttail

zstaptail:
	VBROADCASTSS (SI), Z0
	VMOVUPS.Z    (DX), K1, Z5
	VMULPS       Z5, Z0, Z5
	VADDPS       Z5, Z1, Z1
	ADDQ         $4, SI
	ADDQ         $4, DX
	DECQ         BX
	JNZ          zstaptail

zssttail:
	VMOVUPS Z1, K1, (DI)

zsdone:
	VZEROUPPER
	RET
