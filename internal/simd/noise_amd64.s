//go:build !noasm

#include "textflag.h"

// Noise-field kernels: noise.go's fieldLane, eight lanes per block on
// AVX-512 and four on AVX2 (below). Every operation is the IEEE-rounded
// scalar one of fieldLane (and so of math/log_amd64.s and math/sin.go)
// applied lane-wise: separate multiplies and adds (no FMA), a true
// division and square root, exact integer↔float conversions of values
// below 2^53, and mask selects in place of branches. The results are
// bit-identical to the pure-Go kernel (DESIGN.md §13). The AVX-512
// kernels need AVX512F + AVX512DQ (VPMULLQ, VCVTQQ2PD, VCVTTPD2QQ).

// Every constant fills a 32-byte row (four copies), so the AVX2 kernel
// reads it as a YMM operand and the AVX-512 kernel broadcasts its first
// quadword.
#define STEP    noiseConst<>+0(SB) // fieldStepI, SplitMix64's increment
#define STEP8   noiseConst<>+32(SB) // 8·fieldStepI: one AVX-512 block of lanes
#define STEP4   noiseConst<>+64(SB) // 4·fieldStepI: one AVX2 block of lanes
#define MIX1    noiseConst<>+96(SB) // SplitMix64 output multipliers
#define MIX2    noiseConst<>+128(SB)
#define MIX1HI  noiseConst<>+160(SB) // their high halves (AVX2 64-bit multiply)
#define MIX2HI  noiseConst<>+192(SB)
#define LO32    noiseConst<>+224(SB) // low-half mask
#define MAGIC52 noiseConst<>+256(SB) // 2^52: an integer below 2^52 ORed in converts by subtraction
#define MAGICK  noiseConst<>+288(SB) // 2^52+2^51: the same for a small signed integer, added
#define MANT    noiseConst<>+320(SB) // float64 mantissa bits
#define HALF    noiseConst<>+352(SB) // 0.5, also the exponent bits of [0.5, 1)
#define BIAS    noiseConst<>+384(SB) // math.Frexp exponent bias
#define ONEI    noiseConst<>+416(SB) // integer 1
#define TWOI    noiseConst<>+448(SB) // integer 2
#define ONED    noiseConst<>+480(SB) // int32 1, two per quadword
#define TWOD    noiseConst<>+512(SB) // int32 2, two per quadword
#define EXP1    noiseConst<>+544(SB) // one exponent step: f1·2 on the bits
#define ONE     noiseConst<>+576(SB) // 1.0
#define TWO     noiseConst<>+608(SB) // 2.0
#define MTWO    noiseConst<>+640(SB) // -2.0
#define TWO32   noiseConst<>+672(SB) // 2^32
#define ULP53   noiseConst<>+704(SB) // 2^-53
#define HSQRT2  noiseConst<>+736(SB) // √2/2
#define LN2HI   noiseConst<>+768(SB) // math/log_amd64.s constants
#define LN2LO   noiseConst<>+800(SB)
#define LOG1    noiseConst<>+832(SB)
#define LOG2    noiseConst<>+864(SB)
#define LOG3    noiseConst<>+896(SB)
#define LOG4    noiseConst<>+928(SB)
#define LOG5    noiseConst<>+960(SB)
#define LOG6    noiseConst<>+992(SB)
#define LOG7    noiseConst<>+1024(SB)
#define TWOPI   noiseConst<>+1056(SB) // 2π
#define FOPI    noiseConst<>+1088(SB) // 4/π
#define PI4A    noiseConst<>+1120(SB) // π/4 in three parts (math/sin.go)
#define PI4B    noiseConst<>+1152(SB)
#define PI4C    noiseConst<>+1184(SB)
#define SIN0    noiseConst<>+1216(SB) // math/sin.go _sin
#define SIN1    noiseConst<>+1248(SB)
#define SIN2    noiseConst<>+1280(SB)
#define SIN3    noiseConst<>+1312(SB)
#define SIN4    noiseConst<>+1344(SB)
#define SIN5    noiseConst<>+1376(SB)
#define COS0    noiseConst<>+1408(SB) // math/sin.go _cos
#define COS1    noiseConst<>+1440(SB)
#define COS2    noiseConst<>+1472(SB)
#define COS3    noiseConst<>+1504(SB)
#define COS4    noiseConst<>+1536(SB)
#define COS5    noiseConst<>+1568(SB)

DATA noiseConst<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA noiseConst<>+8(SB)/8, $0x9e3779b97f4a7c15
DATA noiseConst<>+16(SB)/8, $0x9e3779b97f4a7c15
DATA noiseConst<>+24(SB)/8, $0x9e3779b97f4a7c15
DATA noiseConst<>+32(SB)/8, $0xf1bbcdcbfa53e0a8
DATA noiseConst<>+40(SB)/8, $0xf1bbcdcbfa53e0a8
DATA noiseConst<>+48(SB)/8, $0xf1bbcdcbfa53e0a8
DATA noiseConst<>+56(SB)/8, $0xf1bbcdcbfa53e0a8
DATA noiseConst<>+64(SB)/8, $0x78dde6e5fd29f054
DATA noiseConst<>+72(SB)/8, $0x78dde6e5fd29f054
DATA noiseConst<>+80(SB)/8, $0x78dde6e5fd29f054
DATA noiseConst<>+88(SB)/8, $0x78dde6e5fd29f054
DATA noiseConst<>+96(SB)/8, $0xbf58476d1ce4e5b9
DATA noiseConst<>+104(SB)/8, $0xbf58476d1ce4e5b9
DATA noiseConst<>+112(SB)/8, $0xbf58476d1ce4e5b9
DATA noiseConst<>+120(SB)/8, $0xbf58476d1ce4e5b9
DATA noiseConst<>+128(SB)/8, $0x94d049bb133111eb
DATA noiseConst<>+136(SB)/8, $0x94d049bb133111eb
DATA noiseConst<>+144(SB)/8, $0x94d049bb133111eb
DATA noiseConst<>+152(SB)/8, $0x94d049bb133111eb
DATA noiseConst<>+160(SB)/8, $0x00000000bf58476d
DATA noiseConst<>+168(SB)/8, $0x00000000bf58476d
DATA noiseConst<>+176(SB)/8, $0x00000000bf58476d
DATA noiseConst<>+184(SB)/8, $0x00000000bf58476d
DATA noiseConst<>+192(SB)/8, $0x0000000094d049bb
DATA noiseConst<>+200(SB)/8, $0x0000000094d049bb
DATA noiseConst<>+208(SB)/8, $0x0000000094d049bb
DATA noiseConst<>+216(SB)/8, $0x0000000094d049bb
DATA noiseConst<>+224(SB)/8, $0x00000000ffffffff
DATA noiseConst<>+232(SB)/8, $0x00000000ffffffff
DATA noiseConst<>+240(SB)/8, $0x00000000ffffffff
DATA noiseConst<>+248(SB)/8, $0x00000000ffffffff
DATA noiseConst<>+256(SB)/8, $0x4330000000000000
DATA noiseConst<>+264(SB)/8, $0x4330000000000000
DATA noiseConst<>+272(SB)/8, $0x4330000000000000
DATA noiseConst<>+280(SB)/8, $0x4330000000000000
DATA noiseConst<>+288(SB)/8, $0x4338000000000000
DATA noiseConst<>+296(SB)/8, $0x4338000000000000
DATA noiseConst<>+304(SB)/8, $0x4338000000000000
DATA noiseConst<>+312(SB)/8, $0x4338000000000000
DATA noiseConst<>+320(SB)/8, $0x000fffffffffffff
DATA noiseConst<>+328(SB)/8, $0x000fffffffffffff
DATA noiseConst<>+336(SB)/8, $0x000fffffffffffff
DATA noiseConst<>+344(SB)/8, $0x000fffffffffffff
DATA noiseConst<>+352(SB)/8, $0x3fe0000000000000
DATA noiseConst<>+360(SB)/8, $0x3fe0000000000000
DATA noiseConst<>+368(SB)/8, $0x3fe0000000000000
DATA noiseConst<>+376(SB)/8, $0x3fe0000000000000
DATA noiseConst<>+384(SB)/8, $0x00000000000003fe
DATA noiseConst<>+392(SB)/8, $0x00000000000003fe
DATA noiseConst<>+400(SB)/8, $0x00000000000003fe
DATA noiseConst<>+408(SB)/8, $0x00000000000003fe
DATA noiseConst<>+416(SB)/8, $0x0000000000000001
DATA noiseConst<>+424(SB)/8, $0x0000000000000001
DATA noiseConst<>+432(SB)/8, $0x0000000000000001
DATA noiseConst<>+440(SB)/8, $0x0000000000000001
DATA noiseConst<>+448(SB)/8, $0x0000000000000002
DATA noiseConst<>+456(SB)/8, $0x0000000000000002
DATA noiseConst<>+464(SB)/8, $0x0000000000000002
DATA noiseConst<>+472(SB)/8, $0x0000000000000002
DATA noiseConst<>+480(SB)/8, $0x0000000100000001
DATA noiseConst<>+488(SB)/8, $0x0000000100000001
DATA noiseConst<>+496(SB)/8, $0x0000000100000001
DATA noiseConst<>+504(SB)/8, $0x0000000100000001
DATA noiseConst<>+512(SB)/8, $0x0000000200000002
DATA noiseConst<>+520(SB)/8, $0x0000000200000002
DATA noiseConst<>+528(SB)/8, $0x0000000200000002
DATA noiseConst<>+536(SB)/8, $0x0000000200000002
DATA noiseConst<>+544(SB)/8, $0x0010000000000000
DATA noiseConst<>+552(SB)/8, $0x0010000000000000
DATA noiseConst<>+560(SB)/8, $0x0010000000000000
DATA noiseConst<>+568(SB)/8, $0x0010000000000000
DATA noiseConst<>+576(SB)/8, $0x3ff0000000000000
DATA noiseConst<>+584(SB)/8, $0x3ff0000000000000
DATA noiseConst<>+592(SB)/8, $0x3ff0000000000000
DATA noiseConst<>+600(SB)/8, $0x3ff0000000000000
DATA noiseConst<>+608(SB)/8, $0x4000000000000000
DATA noiseConst<>+616(SB)/8, $0x4000000000000000
DATA noiseConst<>+624(SB)/8, $0x4000000000000000
DATA noiseConst<>+632(SB)/8, $0x4000000000000000
DATA noiseConst<>+640(SB)/8, $0xc000000000000000
DATA noiseConst<>+648(SB)/8, $0xc000000000000000
DATA noiseConst<>+656(SB)/8, $0xc000000000000000
DATA noiseConst<>+664(SB)/8, $0xc000000000000000
DATA noiseConst<>+672(SB)/8, $0x41f0000000000000
DATA noiseConst<>+680(SB)/8, $0x41f0000000000000
DATA noiseConst<>+688(SB)/8, $0x41f0000000000000
DATA noiseConst<>+696(SB)/8, $0x41f0000000000000
DATA noiseConst<>+704(SB)/8, $0x3ca0000000000000
DATA noiseConst<>+712(SB)/8, $0x3ca0000000000000
DATA noiseConst<>+720(SB)/8, $0x3ca0000000000000
DATA noiseConst<>+728(SB)/8, $0x3ca0000000000000
DATA noiseConst<>+736(SB)/8, $0x3fe6a09e667f3bcd
DATA noiseConst<>+744(SB)/8, $0x3fe6a09e667f3bcd
DATA noiseConst<>+752(SB)/8, $0x3fe6a09e667f3bcd
DATA noiseConst<>+760(SB)/8, $0x3fe6a09e667f3bcd
DATA noiseConst<>+768(SB)/8, $0x3fe62e42fee00000
DATA noiseConst<>+776(SB)/8, $0x3fe62e42fee00000
DATA noiseConst<>+784(SB)/8, $0x3fe62e42fee00000
DATA noiseConst<>+792(SB)/8, $0x3fe62e42fee00000
DATA noiseConst<>+800(SB)/8, $0x3dea39ef35793c76
DATA noiseConst<>+808(SB)/8, $0x3dea39ef35793c76
DATA noiseConst<>+816(SB)/8, $0x3dea39ef35793c76
DATA noiseConst<>+824(SB)/8, $0x3dea39ef35793c76
DATA noiseConst<>+832(SB)/8, $0x3fe5555555555593
DATA noiseConst<>+840(SB)/8, $0x3fe5555555555593
DATA noiseConst<>+848(SB)/8, $0x3fe5555555555593
DATA noiseConst<>+856(SB)/8, $0x3fe5555555555593
DATA noiseConst<>+864(SB)/8, $0x3fd999999997fa04
DATA noiseConst<>+872(SB)/8, $0x3fd999999997fa04
DATA noiseConst<>+880(SB)/8, $0x3fd999999997fa04
DATA noiseConst<>+888(SB)/8, $0x3fd999999997fa04
DATA noiseConst<>+896(SB)/8, $0x3fd2492494229359
DATA noiseConst<>+904(SB)/8, $0x3fd2492494229359
DATA noiseConst<>+912(SB)/8, $0x3fd2492494229359
DATA noiseConst<>+920(SB)/8, $0x3fd2492494229359
DATA noiseConst<>+928(SB)/8, $0x3fcc71c51d8e78af
DATA noiseConst<>+936(SB)/8, $0x3fcc71c51d8e78af
DATA noiseConst<>+944(SB)/8, $0x3fcc71c51d8e78af
DATA noiseConst<>+952(SB)/8, $0x3fcc71c51d8e78af
DATA noiseConst<>+960(SB)/8, $0x3fc7466496cb03de
DATA noiseConst<>+968(SB)/8, $0x3fc7466496cb03de
DATA noiseConst<>+976(SB)/8, $0x3fc7466496cb03de
DATA noiseConst<>+984(SB)/8, $0x3fc7466496cb03de
DATA noiseConst<>+992(SB)/8, $0x3fc39a09d078c69f
DATA noiseConst<>+1000(SB)/8, $0x3fc39a09d078c69f
DATA noiseConst<>+1008(SB)/8, $0x3fc39a09d078c69f
DATA noiseConst<>+1016(SB)/8, $0x3fc39a09d078c69f
DATA noiseConst<>+1024(SB)/8, $0x3fc2f112df3e5244
DATA noiseConst<>+1032(SB)/8, $0x3fc2f112df3e5244
DATA noiseConst<>+1040(SB)/8, $0x3fc2f112df3e5244
DATA noiseConst<>+1048(SB)/8, $0x3fc2f112df3e5244
DATA noiseConst<>+1056(SB)/8, $0x401921fb54442d18
DATA noiseConst<>+1064(SB)/8, $0x401921fb54442d18
DATA noiseConst<>+1072(SB)/8, $0x401921fb54442d18
DATA noiseConst<>+1080(SB)/8, $0x401921fb54442d18
DATA noiseConst<>+1088(SB)/8, $0x3ff45f306dc9c883
DATA noiseConst<>+1096(SB)/8, $0x3ff45f306dc9c883
DATA noiseConst<>+1104(SB)/8, $0x3ff45f306dc9c883
DATA noiseConst<>+1112(SB)/8, $0x3ff45f306dc9c883
DATA noiseConst<>+1120(SB)/8, $0x3fe921fb40000000
DATA noiseConst<>+1128(SB)/8, $0x3fe921fb40000000
DATA noiseConst<>+1136(SB)/8, $0x3fe921fb40000000
DATA noiseConst<>+1144(SB)/8, $0x3fe921fb40000000
DATA noiseConst<>+1152(SB)/8, $0x3e64442d00000000
DATA noiseConst<>+1160(SB)/8, $0x3e64442d00000000
DATA noiseConst<>+1168(SB)/8, $0x3e64442d00000000
DATA noiseConst<>+1176(SB)/8, $0x3e64442d00000000
DATA noiseConst<>+1184(SB)/8, $0x3ce8469898cc5170
DATA noiseConst<>+1192(SB)/8, $0x3ce8469898cc5170
DATA noiseConst<>+1200(SB)/8, $0x3ce8469898cc5170
DATA noiseConst<>+1208(SB)/8, $0x3ce8469898cc5170
DATA noiseConst<>+1216(SB)/8, $0x3de5d8fd1fd19ccd
DATA noiseConst<>+1224(SB)/8, $0x3de5d8fd1fd19ccd
DATA noiseConst<>+1232(SB)/8, $0x3de5d8fd1fd19ccd
DATA noiseConst<>+1240(SB)/8, $0x3de5d8fd1fd19ccd
DATA noiseConst<>+1248(SB)/8, $0xbe5ae5e5a9291f5d
DATA noiseConst<>+1256(SB)/8, $0xbe5ae5e5a9291f5d
DATA noiseConst<>+1264(SB)/8, $0xbe5ae5e5a9291f5d
DATA noiseConst<>+1272(SB)/8, $0xbe5ae5e5a9291f5d
DATA noiseConst<>+1280(SB)/8, $0x3ec71de3567d48a1
DATA noiseConst<>+1288(SB)/8, $0x3ec71de3567d48a1
DATA noiseConst<>+1296(SB)/8, $0x3ec71de3567d48a1
DATA noiseConst<>+1304(SB)/8, $0x3ec71de3567d48a1
DATA noiseConst<>+1312(SB)/8, $0xbf2a01a019bfdf03
DATA noiseConst<>+1320(SB)/8, $0xbf2a01a019bfdf03
DATA noiseConst<>+1328(SB)/8, $0xbf2a01a019bfdf03
DATA noiseConst<>+1336(SB)/8, $0xbf2a01a019bfdf03
DATA noiseConst<>+1344(SB)/8, $0x3f8111111110f7d0
DATA noiseConst<>+1352(SB)/8, $0x3f8111111110f7d0
DATA noiseConst<>+1360(SB)/8, $0x3f8111111110f7d0
DATA noiseConst<>+1368(SB)/8, $0x3f8111111110f7d0
DATA noiseConst<>+1376(SB)/8, $0xbfc5555555555548
DATA noiseConst<>+1384(SB)/8, $0xbfc5555555555548
DATA noiseConst<>+1392(SB)/8, $0xbfc5555555555548
DATA noiseConst<>+1400(SB)/8, $0xbfc5555555555548
DATA noiseConst<>+1408(SB)/8, $0xbda8fa49a0861a9b
DATA noiseConst<>+1416(SB)/8, $0xbda8fa49a0861a9b
DATA noiseConst<>+1424(SB)/8, $0xbda8fa49a0861a9b
DATA noiseConst<>+1432(SB)/8, $0xbda8fa49a0861a9b
DATA noiseConst<>+1440(SB)/8, $0x3e21ee9d7b4e3f05
DATA noiseConst<>+1448(SB)/8, $0x3e21ee9d7b4e3f05
DATA noiseConst<>+1456(SB)/8, $0x3e21ee9d7b4e3f05
DATA noiseConst<>+1464(SB)/8, $0x3e21ee9d7b4e3f05
DATA noiseConst<>+1472(SB)/8, $0xbe927e4f7eac4bc6
DATA noiseConst<>+1480(SB)/8, $0xbe927e4f7eac4bc6
DATA noiseConst<>+1488(SB)/8, $0xbe927e4f7eac4bc6
DATA noiseConst<>+1496(SB)/8, $0xbe927e4f7eac4bc6
DATA noiseConst<>+1504(SB)/8, $0x3efa01a019c844f5
DATA noiseConst<>+1512(SB)/8, $0x3efa01a019c844f5
DATA noiseConst<>+1520(SB)/8, $0x3efa01a019c844f5
DATA noiseConst<>+1528(SB)/8, $0x3efa01a019c844f5
DATA noiseConst<>+1536(SB)/8, $0xbf56c16c16c14f91
DATA noiseConst<>+1544(SB)/8, $0xbf56c16c16c14f91
DATA noiseConst<>+1552(SB)/8, $0xbf56c16c16c14f91
DATA noiseConst<>+1560(SB)/8, $0xbf56c16c16c14f91
DATA noiseConst<>+1568(SB)/8, $0x3fa555555555554b
DATA noiseConst<>+1576(SB)/8, $0x3fa555555555554b
DATA noiseConst<>+1584(SB)/8, $0x3fa555555555554b
DATA noiseConst<>+1592(SB)/8, $0x3fa555555555554b
GLOBL noiseConst<>(SB), RODATA|NOPTR, $1600

// noiseLanes is m·fieldStepI for lanes m = 0…7.
DATA noiseLanes<>+0(SB)/8, $0x0000000000000000
DATA noiseLanes<>+8(SB)/8, $0x9e3779b97f4a7c15
DATA noiseLanes<>+16(SB)/8, $0x3c6ef372fe94f82a
DATA noiseLanes<>+24(SB)/8, $0xdaa66d2c7ddf743f
DATA noiseLanes<>+32(SB)/8, $0x78dde6e5fd29f054
DATA noiseLanes<>+40(SB)/8, $0x1715609f7c746c69
DATA noiseLanes<>+48(SB)/8, $0xb54cda58fbbee87e
DATA noiseLanes<>+56(SB)/8, $0x538454127b096493
GLOBL noiseLanes<>(SB), RODATA|NOPTR, $64

// noiseTail holds the lane numbers 0…3 as quadwords, then as
// doublewords: compared against a broadcast count, they give the AVX2
// tail's store masks.
DATA noiseTail<>+0(SB)/8, $0
DATA noiseTail<>+8(SB)/8, $1
DATA noiseTail<>+16(SB)/8, $2
DATA noiseTail<>+24(SB)/8, $3
DATA noiseTail<>+32(SB)/8, $0x0000000100000000
DATA noiseTail<>+40(SB)/8, $0x0000000300000002
GLOBL noiseTail<>(SB), RODATA|NOPTR, $48

// NOISE_SETUP loads the row key (Z31), the lanes' index terms (Z30),
// the block step (Z29) and 1.0 (Z28), and leaves dst's base in DI and
// its length in CX.
#define NOISE_SETUP \
	MOVQ         dst_base+0(FP), DI;  \
	MOVQ         dst_len+8(FP), CX;   \
	VPBROADCASTQ row+24(FP), Z31;     \
	VPBROADCASTQ idx+32(FP), Z30;     \
	VPADDQ       noiseLanes<>(SB), Z30, Z30; \
	VPBROADCASTQ STEP8, Z29;          \
	VBROADCASTSD ONE, Z28

// MIX is SplitMix64's output mix of the states in Z0, into r (t is
// scratch).
#define MIX(r, t) \
	VPSRLQ       $30, Z0, t;    \
	VPXORQ       t, Z0, r;      \
	VPMULLQ.BCST MIX1, r, r;    \
	VPSRLQ       $27, r, t;     \
	VPXORQ       t, r, r;       \
	VPMULLQ.BCST MIX2, r, r;    \
	VPSRLQ       $31, r, t;     \
	VPXORQ       t, r, r

// NOISE8 computes eight field lanes, keys row ^ idx, into Z3 and
// advances the index terms by one block. Register roles follow
// math/log_amd64.s: Z2 f, Z3 k, Z4 s, Z5 s², Z6 s⁴.
#define NOISE8 \
	VPXORQ       Z30, Z31, Z0; /* key */ \
	VPADDQ       Z29, Z30, Z30;        \
	VPADDQ.BCST  STEP, Z0, Z0; /* first SplitMix64 state */ \
	MIX(Z1, Z2); /* h1 */ \
	VPADDQ.BCST  STEP, Z0, Z0; /* second state */ \
	MIX(Z0, Z2); /* h2 */ \
	VPSRLQ       $11, Z1, Z1;          \
	VCVTQQ2PD    Z1, Z1;               \
	VADDPD.BCST  HALF, Z1, Z1;         \
	VMULPD.BCST  ULP53, Z1, Z1; /* u1 ∈ (0, 1] */ \
	VPSRLQ       $11, Z0, Z0;          \
	VCVTQQ2PD    Z0, Z0;               \
	VMULPD.BCST  ULP53, Z0, Z0; /* u2 ∈ [0, 1) */ \
	VMULPD.BCST  TWOPI, Z0, Z0; /* x = 2π·u2 */ \
	                                   \
	VPANDQ.BCST  MANT, Z1, Z2; /* log(u1): f1, k = frexp(u1) */ \
	VPORQ.BCST   HALF, Z2, Z2;         \
	VPSRLQ       $52, Z1, Z3;          \
	VPSUBQ.BCST  BIAS, Z3, Z3;         \
	VCMPPD.BCST  $2, HSQRT2, Z2, K1; /* f1 <= √2/2 (archLog's NLT) */ \
	VPSUBQ.BCST  ONEI, Z3, K1, Z3; /* k -= 1 */ \
	VPADDQ.BCST  EXP1, Z2, K1, Z2; /* f1 *= 2 */ \
	VCVTQQ2PD    Z3, Z3;               \
	VSUBPD.BCST  ONE, Z2, Z2; /* f = f1 - 1 */ \
	VADDPD.BCST  TWO, Z2, Z4;          \
	VDIVPD       Z4, Z2, Z4; /* s = f / (2 + f) */ \
	VMULPD       Z4, Z4, Z5; /* s2 */ \
	VMULPD       Z5, Z5, Z6; /* s4 */ \
	VMULPD.BCST  LOG7, Z6, Z7; /* t1 = s2*(L1+s4*(L3+s4*(L5+s4*L7))) */ \
	VADDPD.BCST  LOG5, Z7, Z7;         \
	VMULPD       Z6, Z7, Z7;           \
	VADDPD.BCST  LOG3, Z7, Z7;         \
	VMULPD       Z6, Z7, Z7;           \
	VADDPD.BCST  LOG1, Z7, Z7;         \
	VMULPD       Z5, Z7, Z7;           \
	VMULPD.BCST  LOG6, Z6, Z8; /* t2 = s4*(L2+s4*(L4+s4*L6)) */ \
	VADDPD.BCST  LOG4, Z8, Z8;         \
	VMULPD       Z6, Z8, Z8;           \
	VADDPD.BCST  LOG2, Z8, Z8;         \
	VMULPD       Z6, Z8, Z8;           \
	VADDPD       Z8, Z7, Z7; /* R = t1 + t2 */ \
	VMULPD.BCST  HALF, Z2, Z8;         \
	VMULPD       Z2, Z8, Z8; /* hfsq = 0.5*f*f */ \
	VADDPD       Z8, Z7, Z7; /* hfsq + R */ \
	VMULPD       Z4, Z7, Z7; /* s*(hfsq+R) */ \
	VMULPD.BCST  LN2LO, Z3, Z9;        \
	VADDPD       Z9, Z7, Z7; /* s*(hfsq+R) + k*Ln2Lo */ \
	VSUBPD       Z7, Z8, Z8; /* hfsq - (…) */ \
	VSUBPD       Z2, Z8, Z8; /* (…) - f */ \
	VMULPD.BCST  LN2HI, Z3, Z3;        \
	VSUBPD       Z8, Z3, Z3; /* log u1 = k*Ln2Hi - (…) */ \
	VMULPD.BCST  MTWO, Z3, Z3;         \
	VSQRTPD      Z3, Z3; /* r = √(−2·log u1) */ \
	                                   \
	VMULPD.BCST  FOPI, Z0, Z1; /* cos(x): j = uint64(x·4/π) */ \
	VCVTTPD2QQ   Z1, Z1;               \
	VPANDQ.BCST  ONEI, Z1, Z2;         \
	VPADDQ       Z2, Z1, Z1; /* j += j&1 */ \
	VCVTQQ2PD    Z1, Z2; /* y */ \
	VMULPD.BCST  PI4A, Z2, Z4;         \
	VSUBPD       Z4, Z0, Z0;           \
	VMULPD.BCST  PI4B, Z2, Z4;         \
	VSUBPD       Z4, Z0, Z0;           \
	VMULPD.BCST  PI4C, Z2, Z4;         \
	VSUBPD       Z4, Z0, Z0; /* z */ \
	VMULPD       Z0, Z0, Z2; /* zz */ \
	VMULPD.BCST  SIN0, Z2, Z4; /* sine polynomial */ \
	VADDPD.BCST  SIN1, Z4, Z4;         \
	VMULPD       Z2, Z4, Z4;           \
	VADDPD.BCST  SIN2, Z4, Z4;         \
	VMULPD       Z2, Z4, Z4;           \
	VADDPD.BCST  SIN3, Z4, Z4;         \
	VMULPD       Z2, Z4, Z4;           \
	VADDPD.BCST  SIN4, Z4, Z4;         \
	VMULPD       Z2, Z4, Z4;           \
	VADDPD.BCST  SIN5, Z4, Z4;         \
	VMULPD       Z2, Z0, Z5;           \
	VMULPD       Z4, Z5, Z5;           \
	VADDPD       Z5, Z0, Z5; /* sin = z + z*zz*P */ \
	VMULPD.BCST  COS0, Z2, Z6; /* cosine polynomial */ \
	VADDPD.BCST  COS1, Z6, Z6;         \
	VMULPD       Z2, Z6, Z6;           \
	VADDPD.BCST  COS2, Z6, Z6;         \
	VMULPD       Z2, Z6, Z6;           \
	VADDPD.BCST  COS3, Z6, Z6;         \
	VMULPD       Z2, Z6, Z6;           \
	VADDPD.BCST  COS4, Z6, Z6;         \
	VMULPD       Z2, Z6, Z6;           \
	VADDPD.BCST  COS5, Z6, Z6;         \
	VMULPD       Z2, Z2, Z7;           \
	VMULPD       Z6, Z7, Z7;           \
	VMULPD.BCST  HALF, Z2, Z6;         \
	VSUBPD       Z6, Z28, Z6;          \
	VADDPD       Z7, Z6, Z6; /* cos = 1 - 0.5*zz + zz*zz*P */ \
	VPTESTMQ.BCST TWOI, Z1, K2; /* octants 2, 6: the sine */ \
	VMOVAPD      Z5, K2, Z6;           \
	VPSRLQ       $1, Z1, Z7; /* octants 2, 4: negate */ \
	VPSRLQ       $2, Z1, Z8;           \
	VPXORQ       Z8, Z7, Z7;           \
	VPSLLQ       $63, Z7, Z7;          \
	VPXORQ       Z7, Z6, Z6;           \
	VMULPD       Z6, Z3, Z3 /* r·cos(x) */

// tailMask sets K3 to the low CX lanes.
#define TAIL_MASK \
	MOVQ  $1, AX;  \
	SHLQ  CX, AX;  \
	DECQ  AX;      \
	KMOVW AX, K3

// func fieldRow64AVX512(dst []float64, row, idx uint64)
TEXT ·fieldRow64AVX512(SB), NOSPLIT, $0-40
	NOISE_SETUP

blk64:
	CMPQ CX, $8
	JB   tail64
	NOISE8
	VMOVUPD Z3, (DI)
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     blk64

tail64:
	TESTQ CX, CX
	JZ    done64
	NOISE8
	TAIL_MASK
	VMOVUPD Z3, K3, (DI)

done64:
	VZEROUPPER
	RET

// func fieldRow32AVX512(dst []float32, row, idx uint64)
//
// The float64 lanes rounded once to float32 (VCVTPD2PS under the
// default round-to-nearest), as Go's float32() conversion rounds.
TEXT ·fieldRow32AVX512(SB), NOSPLIT, $0-40
	NOISE_SETUP

blk32:
	CMPQ CX, $8
	JB   tail32
	NOISE8
	VCVTPD2PS Z3, Y3
	VMOVUPS   Y3, (DI)
	ADDQ      $32, DI
	SUBQ      $8, CX
	JMP       blk32

tail32:
	TESTQ CX, CX
	JZ    done32
	NOISE8
	VCVTPD2PS Z3, Y3
	TAIL_MASK
	VMOVUPS   Y3, K3, (DI)

done32:
	VZEROUPPER
	RET

// AVX2 noise kernels: four lanes per YMM block, the same lane
// operations as NOISE8 with the AVX-512 instructions AVX2 lacks
// rebuilt exactly: the 64-bit multiply from three VPMULUDQ partial
// products, the uint64→float64 conversion of h>>11 < 2^53 from its two
// 32-bit halves (each exact through the 2^52 exponent trick, and their
// sum exact because it is representable), k's int64→float64 through
// the 2^52+2^51 trick, the octant j in int32 lanes (VCVTTPD2DQ), and
// blends and AND masks in place of opmasks.

// NOISE4_SETUP loads the row key (Y15), the lanes' index terms (Y14)
// and leaves dst's base in DI and its length in CX.
#define NOISE4_SETUP \
	MOVQ         dst_base+0(FP), DI; \
	MOVQ         dst_len+8(FP), CX;  \
	VPBROADCASTQ row+24(FP), Y15;    \
	VPBROADCASTQ idx+32(FP), Y14;    \
	VPADDQ       noiseLanes<>(SB), Y14, Y14

// MUL64(m, mhi, r, t, u) sets r = r·m mod 2^64 lane-wise, mhi holding
// m's high halves: lo·lo + ((hi·lo + lo·hi) << 32).
#define MUL64(m, mhi, r, t, u) \
	VPSRLQ   $32, r, t;  \
	VPMULUDQ m, t, t;    \
	VPMULUDQ mhi, r, u;  \
	VPADDQ   u, t, t;    \
	VPSLLQ   $32, t, t;  \
	VPMULUDQ m, r, r;    \
	VPADDQ   t, r, r

// MIX4 is SplitMix64's output mix of the states in Y0, into r.
#define MIX4(r, t, u) \
	VPSRLQ $30, Y0, t;           \
	VPXOR  t, Y0, r;             \
	MUL64(MIX1, MIX1HI, r, t, u); \
	VPSRLQ $27, r, t;            \
	VPXOR  t, r, r;              \
	MUL64(MIX2, MIX2HI, r, t, u); \
	VPSRLQ $31, r, t;            \
	VPXOR  t, r, r

// TOF53(h, t) converts h>>11 exactly to float64 in h.
#define TOF53(h, t) \
	VPSRLQ $11, h, h;       \
	VPSRLQ $32, h, t;       \
	VPAND  LO32, h, h;      \
	VPOR   MAGIC52, t, t;   \
	VPOR   MAGIC52, h, h;   \
	VSUBPD MAGIC52, t, t;   \
	VSUBPD MAGIC52, h, h;   \
	VMULPD TWO32, t, t;     \
	VADDPD t, h, h

// NOISE4 computes four field lanes, keys row ^ idx, into Y3 and
// advances the index terms by one block. Registers as in NOISE8.
#define NOISE4 \
	VPXOR       Y14, Y15, Y0;        \
	VPADDQ      STEP4, Y14, Y14;     \
	VPADDQ      STEP, Y0, Y0;        \
	MIX4(Y1, Y2, Y3);                \
	VPADDQ      STEP, Y0, Y0;        \
	MIX4(Y0, Y2, Y3);                \
	TOF53(Y1, Y2);                   \
	VADDPD      HALF, Y1, Y1;        \
	VMULPD      ULP53, Y1, Y1;       \
	TOF53(Y0, Y2);                   \
	VMULPD      ULP53, Y0, Y0;       \
	VMULPD      TWOPI, Y0, Y0;       \
	                                 \
	VPAND       MANT, Y1, Y2;        \
	VPOR        HALF, Y2, Y2;        \
	VPSRLQ      $52, Y1, Y3;         \
	VPSUBQ      BIAS, Y3, Y3;        \
	VCMPPD      $2, HSQRT2, Y2, Y4;  \
	VPADDQ      Y4, Y3, Y3;          \
	VPAND       EXP1, Y4, Y4;        \
	VPADDQ      Y4, Y2, Y2;          \
	VPADDQ      MAGICK, Y3, Y3;      \
	VSUBPD      MAGICK, Y3, Y3;      \
	VSUBPD      ONE, Y2, Y2;         \
	VADDPD      TWO, Y2, Y4;         \
	VDIVPD      Y4, Y2, Y4;          \
	VMULPD      Y4, Y4, Y5;          \
	VMULPD      Y5, Y5, Y6;          \
	VMULPD      LOG7, Y6, Y7;        \
	VADDPD      LOG5, Y7, Y7;        \
	VMULPD      Y6, Y7, Y7;          \
	VADDPD      LOG3, Y7, Y7;        \
	VMULPD      Y6, Y7, Y7;          \
	VADDPD      LOG1, Y7, Y7;        \
	VMULPD      Y5, Y7, Y7;          \
	VMULPD      LOG6, Y6, Y8;        \
	VADDPD      LOG4, Y8, Y8;        \
	VMULPD      Y6, Y8, Y8;          \
	VADDPD      LOG2, Y8, Y8;        \
	VMULPD      Y6, Y8, Y8;          \
	VADDPD      Y8, Y7, Y7;          \
	VMULPD      HALF, Y2, Y8;        \
	VMULPD      Y2, Y8, Y8;          \
	VADDPD      Y8, Y7, Y7;          \
	VMULPD      Y4, Y7, Y7;          \
	VMULPD      LN2LO, Y3, Y9;       \
	VADDPD      Y9, Y7, Y7;          \
	VSUBPD      Y7, Y8, Y8;          \
	VSUBPD      Y2, Y8, Y8;          \
	VMULPD      LN2HI, Y3, Y3;       \
	VSUBPD      Y8, Y3, Y3;          \
	VMULPD      MTWO, Y3, Y3;        \
	VSQRTPD     Y3, Y3;              \
	                                 \
	VMULPD      FOPI, Y0, Y1;        \
	VCVTTPD2DQY Y1, X1;              \
	VPAND       ONED, X1, X2;        \
	VPADDD      X2, X1, X1;          \
	VCVTDQ2PD   X1, Y2;              \
	VMULPD      PI4A, Y2, Y4;        \
	VSUBPD      Y4, Y0, Y0;          \
	VMULPD      PI4B, Y2, Y4;        \
	VSUBPD      Y4, Y0, Y0;          \
	VMULPD      PI4C, Y2, Y4;        \
	VSUBPD      Y4, Y0, Y0;          \
	VMULPD      Y0, Y0, Y2;          \
	VMULPD      SIN0, Y2, Y4;        \
	VADDPD      SIN1, Y4, Y4;        \
	VMULPD      Y2, Y4, Y4;          \
	VADDPD      SIN2, Y4, Y4;        \
	VMULPD      Y2, Y4, Y4;          \
	VADDPD      SIN3, Y4, Y4;        \
	VMULPD      Y2, Y4, Y4;          \
	VADDPD      SIN4, Y4, Y4;        \
	VMULPD      Y2, Y4, Y4;          \
	VADDPD      SIN5, Y4, Y4;        \
	VMULPD      Y2, Y0, Y5;          \
	VMULPD      Y4, Y5, Y5;          \
	VADDPD      Y5, Y0, Y5;          \
	VMULPD      COS0, Y2, Y6;        \
	VADDPD      COS1, Y6, Y6;        \
	VMULPD      Y2, Y6, Y6;          \
	VADDPD      COS2, Y6, Y6;        \
	VMULPD      Y2, Y6, Y6;          \
	VADDPD      COS3, Y6, Y6;        \
	VMULPD      Y2, Y6, Y6;          \
	VADDPD      COS4, Y6, Y6;        \
	VMULPD      Y2, Y6, Y6;          \
	VADDPD      COS5, Y6, Y6;        \
	VMULPD      Y2, Y2, Y7;          \
	VMULPD      Y6, Y7, Y7;          \
	VMULPD      HALF, Y2, Y6;        \
	VMOVUPD     ONE, Y8;             \
	VSUBPD      Y6, Y8, Y6;          \
	VADDPD      Y7, Y6, Y6;          \
	VPAND       TWOD, X1, X8;        \
	VPCMPEQD    TWOD, X8, X8;        \
	VPMOVSXDQ   X8, Y8;              \
	VBLENDVPD   Y8, Y5, Y6, Y6;      \
	VPSRLD      $1, X1, X8;          \
	VPSRLD      $2, X1, X9;          \
	VPXOR       X9, X8, X8;          \
	VPMOVZXDQ   X8, Y8;              \
	VPSLLQ      $63, Y8, Y8;         \
	VXORPD      Y8, Y6, Y6;          \
	VMULPD      Y6, Y3, Y3

// func fieldRow64AVX2(dst []float64, row, idx uint64)
TEXT ·fieldRow64AVX2(SB), NOSPLIT, $0-40
	NOISE4_SETUP

blk64avx2:
	CMPQ CX, $4
	JB   tail64avx2
	NOISE4
	VMOVUPD Y3, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     blk64avx2

tail64avx2:
	TESTQ CX, CX
	JZ    done64avx2
	NOISE4
	MOVQ         CX, X9
	VPBROADCASTQ X9, Y9
	VPCMPGTQ     noiseTail<>+0(SB), Y9, Y9
	VMASKMOVPD   Y3, Y9, (DI)

done64avx2:
	VZEROUPPER
	RET

// func fieldRow32AVX2(dst []float32, row, idx uint64)
TEXT ·fieldRow32AVX2(SB), NOSPLIT, $0-40
	NOISE4_SETUP

blk32avx2:
	CMPQ CX, $4
	JB   tail32avx2
	NOISE4
	VCVTPD2PSY Y3, X3
	VMOVUPS    X3, (DI)
	ADDQ       $16, DI
	SUBQ       $4, CX
	JMP        blk32avx2

tail32avx2:
	TESTQ CX, CX
	JZ    done32avx2
	NOISE4
	VCVTPD2PSY   Y3, X3
	MOVQ         CX, X9
	VPBROADCASTD X9, X9
	VPCMPGTD     noiseTail<>+32(SB), X9, X9
	VMASKMOVPS   X3, X9, (DI)

done32avx2:
	VZEROUPPER
	RET
