package simd

import "math"

// The Gaussian noise field of paper eqn (18), one sample per lattice
// point: the definition lives in the rng package doc (rng.Field), and
// this file holds its lane kernel. Each lane hashes its lattice key
// through two SplitMix64 rounds, forms u1 ∈ (0, 1] and u2 ∈ [0, 1), and
// returns √(−2·ln u1)·cos(2π·u2). The log mirrors Go's amd64
// math.Log (math/log_amd64.s: the same constants and operation order,
// including its f1 ≤ √2/2 reduction test) and the cos mirrors math.Cos
// (math/sin.go) on [0, 2π], so on amd64 every kernel set — this
// portable one and the assembly ones — returns exactly what
// math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2) returns. See
// DESIGN.md §13 for the bit-identity argument.

const (
	// fieldStepI and fieldStepJ are the odd multipliers that mix the
	// lattice coordinates into a lane key: key(i, j) = seed ^ i·fieldStepI
	// ^ j·fieldStepJ. fieldStepI is also SplitMix64's increment.
	fieldStepI = 0x9e3779b97f4a7c15
	fieldStepJ = 0xc2b2ae3d27d4eb4f
)

// FieldAt returns the field sample of lattice point (i, j) under seed:
// the length-1 case of FieldRow64.
func FieldAt(seed uint64, i, j int64) float64 {
	return fieldLane(seed ^ uint64(i)*fieldStepI ^ uint64(j)*fieldStepJ)
}

// FieldRow64 writes dst[m] = FieldAt(seed, i0+m, j) for every m through
// the kernel set the dispatch selected.
func FieldRow64(dst []float64, seed uint64, i0, j int64) {
	FieldKernel{&chosen}.Row64(dst, seed, i0, j)
}

// FieldRow32 is FieldRow64 rounded once to float32 per sample.
func FieldRow32(dst []float32, seed uint64, i0, j int64) {
	FieldKernel{&chosen}.Row32(dst, seed, i0, j)
}

// FieldKernel is one kernel set's noise-field row kernel.
type FieldKernel struct{ set *kernelSet }

// FieldKernels returns the noise row kernel of every kernel set this
// build runs on this CPU, portable first; the last is the one
// FieldRow64 and FieldRow32 use.
func FieldKernels() []FieldKernel {
	ks := make([]FieldKernel, len(kernels))
	for i := range kernels {
		ks[i] = FieldKernel{&kernels[i]}
	}
	return ks
}

// Name reports the kernel set ("go", "avx2", "avx512" or "neon").
func (k FieldKernel) Name() string { return k.set.name }

// Row64 is FieldRow64 through this kernel set.
func (k FieldKernel) Row64(dst []float64, seed uint64, i0, j int64) {
	k.set.fieldRow64(dst, seed^uint64(j)*fieldStepJ, uint64(i0)*fieldStepI)
}

// Row32 is FieldRow32 through this kernel set.
func (k FieldKernel) Row32(dst []float32, seed uint64, i0, j int64) {
	k.set.fieldRow32(dst, seed^uint64(j)*fieldStepJ, uint64(i0)*fieldStepI)
}

// fieldRowGeneric is the portable noise kernel: lane m of a row whose
// key is row and whose first index term is idx hashes row ^ (idx +
// m·fieldStepI), which is key(i0+m, j) in wrapping arithmetic.
func fieldRowGeneric[F Float](dst []F, row, idx uint64) {
	for m := range dst {
		dst[m] = F(fieldLane(row ^ idx))
		idx += fieldStepI
	}
}

func fieldRowGeneric64(dst []float64, row, idx uint64) { fieldRowGeneric(dst, row, idx) }
func fieldRowGeneric32(dst []float32, row, idx uint64) { fieldRowGeneric(dst, row, idx) }

// splitmixFinal is SplitMix64's output mix of an advanced state.
func splitmixFinal(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// fieldLane is one lane of the field: two SplitMix64 rounds from key,
// then Box–Muller. It has no data-dependent branch. Every product that
// feeds an addition goes through an explicit float64() conversion,
// which the Go spec defines as a rounding point, so no compiler may
// fuse it into an FMA (arm64 would otherwise): the lane rounds the same
// way on every architecture. h>>11 < 2^53 converts exactly through
// int64, and +0.5 rounds to even at 2^52 and above, as the scalar
// definition always has.
func fieldLane(key uint64) float64 {
	u1, u2 := fieldUniforms(key)
	return math.Sqrt(-2*logLane(u1)) * cosLane(2*math.Pi*u2)
}

// fieldUniforms hashes a lane key into the Box–Muller pair: u1 ∈ (0, 1]
// (safe in log) from the first SplitMix64 round, u2 ∈ [0, 1) (the
// angle) from the second.
func fieldUniforms(key uint64) (u1, u2 float64) {
	key += fieldStepI
	h1 := splitmixFinal(key)
	key += fieldStepI
	h2 := splitmixFinal(key)
	u1 = (float64(int64(h1>>11)) + 0.5) * (1.0 / (1 << 53))
	u2 = float64(int64(h2>>11)) * (1.0 / (1 << 53))
	return u1, u2
}

// logLane is math/log_amd64.s (archLog) for a normal x > 0, without its
// special-case branches. The reduction test is archLog's CMPSD NLT,
// f1 ≤ √2/2 (math/log.go's portable form tests f1 < √2/2); the halving
// of f1's range is done on the exponent bits, which is exactly f1·2.
func logLane(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01
		ln2Lo = 1.90821492927058770002e-10
		l1    = 6.666666666666735130e-01
		l2    = 3.999999999940941908e-01
		l3    = 2.857142874366239149e-01
		l4    = 2.222219843214978396e-01
		l5    = 1.818357216161805012e-01
		l6    = 1.531383769920937332e-01
		l7    = 1.479819860511658591e-01
	)
	bits := math.Float64bits(x)
	fb := bits&(1<<52-1) | 0x3FE0000000000000 // f1 ∈ [0.5, 1), as math.Frexp
	// le is all ones when f1 ≤ √2/2: positive floats order as their bits.
	le := uint64(int64(fb-math.Float64bits(math.Sqrt2/2)-1) >> 63)
	k := float64(int64(bits>>52&0x7FF) - 0x3FE - int64(le&1))
	f := math.Float64frombits(fb+le&(1<<52)) - 1

	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7))))))
	t2 := s4 * (l2 + float64(s4*(l4+float64(s4*l6))))
	r := float64(t1) + float64(t2)
	hfsq := float64(0.5 * f * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*ln2Lo))) - f)
}

// sinCoef and cosCoef are math/sin.go's _sin and _cos.
var (
	sinCoef = [6]float64{
		1.58962301576546568060e-10,
		-2.50507477628578072866e-8,
		2.75573136213857245213e-6,
		-1.98412698295895385996e-4,
		8.33333333332211858878e-3,
		-1.66666666666666307295e-1,
	}
	cosCoef = [6]float64{
		-1.13585365213876817300e-11,
		2.08757008419747316778e-9,
		-2.75573141792967388112e-7,
		2.48015872888517045348e-5,
		-1.38888888888730564116e-3,
		4.16666666666665929218e-2,
	}
)

// cosLane is math.Cos (math/sin.go) for 0 ≤ x < 2^29 without its
// branches: both octant polynomials are evaluated and the octant picks
// one and its sign by bit selects.
func cosLane(x float64) float64 {
	const (
		pi4A = 7.85398125648498535156e-1
		pi4B = 3.77489470793079817668e-8
		pi4C = 2.69515142907905952645e-15
	)
	j := uint64(int64(x * (4 / math.Pi)))
	j += j & 1 // map zeros to origin
	y := float64(int64(j))
	z := ((x - float64(y*pi4A)) - float64(y*pi4B)) - float64(y*pi4C)
	zz := z * z

	ps := float64(sinCoef[0] * zz)
	pc := float64(cosCoef[0] * zz)
	for n := 1; n < 5; n++ {
		ps = float64((ps + sinCoef[n]) * zz)
		pc = float64((pc + cosCoef[n]) * zz)
	}
	ps += sinCoef[5]
	pc += cosCoef[5]
	sin := z + float64(float64(z*zz)*ps)
	cos := (1.0 - float64(0.5*zz)) + float64(float64(zz*zz)*pc)

	// Octants 2 and 6 (j&2) take the sine polynomial; octants 2 and 4
	// negate.
	useSin := -(j >> 1 & 1)
	neg := (j>>1 ^ j>>2) & 1 << 63
	return math.Float64frombits((math.Float64bits(cos)&^useSin | math.Float64bits(sin)&useSin) ^ neg)
}
