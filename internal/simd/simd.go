// Package simd supplies the precision-generic multiply-accumulate (MAC)
// kernels behind the direct-convolution and weight-blend hot loops, and
// the FFT column-block kernels behind the two-dimensional transforms
// (BlockFFT, fftblock.go). The MAC contract is one primitive:
//
//	Axpy: y[i] += alpha·x[i]   (elementwise, no reduction)
//
// The elementwise shape is deliberate. A dot-product MAC carries a
// serial dependency through its accumulator, so a scalar loop is bound
// by FP-add latency; the axpy form has no cross-lane dependency at all,
// which lets SIMD lanes (and out-of-order scalar cores) run at
// throughput. Reformulating the convolution tap sum as a sequence of
// axpy sweeps keeps every output sample's additions in the same order
// as the literal per-sample sum, so the reformulation is bit-identical
// to the reference loop at both precisions — see DESIGN.md §13.
//
// Four implementations sit behind the dispatch, which picks the last
// kernel set hostKernels lists:
//
//   - amd64 AVX-512: 16-lane (float32) / 8-lane (float64) ZMM MAC-row
//     kernels with opmask tails, selected at init when CPUID reports
//     AVX512F and XCR0 shows the OS saving opmask and ZMM state. Axpy
//     and the FFT block stages keep the AVX2 kernels.
//   - amd64 AVX2: VEX-encoded 8-lane (float32) / 4-lane (float64)
//     kernels and a YMM FFT block-stage kernel, selected when CPUID
//     reports AVX2 + OS YMM-state support. Both amd64 sets use separate
//     multiply and add (no FMA), so their results are bit-identical to
//     the pure-Go fallback — the float64 reference engine produces the
//     same bytes with and without assembly, on any amd64 CPU.
//   - arm64: NEON kernels using FMLA. arm64 is allowed to fuse — the Go
//     compiler already emits FMADD for the fallback's a*x + y pattern —
//     so on arm64 both paths fuse and agreement with amd64 is only
//     within the documented f32/f64 tolerance, as it always has been.
//     The FFT block stages are the pure-Go ones.
//   - pure Go: an 8-lane manually unrolled loop, the portable
//     reference. Build with -tags noasm to force it everywhere.
package simd

// kernelSet is one implementation of the MAC primitives and of the FFT
// column-block kernels (fftblock.go).
type kernelSet struct {
	name        string
	axpy32      func(alpha float32, x, y []float32)
	axpy64      func(alpha float64, x, y []float64)
	macRow32    func(taps, noise, dst []float32)
	macRow64    func(taps, noise, dst []float64)
	blockStages func(a, tw []complex128, inverse bool)
}

// goKernels is the portable set every build can run.
var goKernels = kernelSet{"go", axpyGeneric32, axpyGeneric64, macRowGeneric32, macRowGeneric64,
	blockStagesGeneric}

// kernels is every set this build runs on this CPU, portable first and
// most capable last; the exported kernels dispatch to chosen, the last.
var (
	kernels = hostKernels()
	chosen  = kernels[len(kernels)-1]
)

// Impl reports which MAC kernel set the dispatch selected ("go",
// "avx2", "avx512" or "neon"), surfaced in tests and benchmark names.
func Impl() string { return chosen.name }

// Float is the precision parameter of the generic render pipeline.
type Float interface {
	~float32 | ~float64
}

// Axpy computes y[i] += alpha·x[i] over the full length of y.
// x and y must have equal length and must not overlap.
func Axpy[F Float](alpha F, x, y []F) {
	if len(x) != len(y) {
		panic("simd: Axpy length mismatch")
	}
	switch ys := any(y).(type) {
	case []float32:
		chosen.axpy32(any(alpha).(float32), any(x).([]float32), ys)
	case []float64:
		chosen.axpy64(any(alpha).(float64), any(x).([]float64), ys)
	default:
		axpyGeneric(alpha, x, y)
	}
}

// Axpy32 is the float32 MAC kernel: y[i] += alpha·x[i].
func Axpy32(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("simd: Axpy32 length mismatch")
	}
	chosen.axpy32(alpha, x, y)
}

// Axpy64 is the float64 MAC kernel: y[i] += alpha·x[i].
func Axpy64(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("simd: Axpy64 length mismatch")
	}
	chosen.axpy64(alpha, x, y)
}

// MacRow32 fuses one full kernel row of multiply-accumulates:
//
//	dst[i] += Σ_a taps[a]·noise[a+i]   for every i
//
// It is the convolution inner loop batched one level higher than Axpy:
// instead of len(taps) axpy calls that each reload and restore dst, the
// destination accumulators stay in registers across the whole tap row.
// For the tile-serving regime (rows of a few dozen samples, kernels of
// ~10 taps per row) this removes most of the per-call and dst-traffic
// overhead of the axpy formulation. The additions for each output
// sample happen in tap order a = 0, 1, …, exactly like the axpy sweeps,
// so results are bit-identical to composing Axpy32 per tap (and, on
// amd64/noasm where nothing fuses, to the literal per-sample sum).
//
// Contract: len(noise) ≥ len(taps)−1+len(dst); noise and dst must not
// overlap.
func MacRow32(taps, noise, dst []float32) {
	if len(noise) < len(taps)-1+len(dst) {
		panic("simd: MacRow32 noise window shorter than taps-1+dst")
	}
	chosen.macRow32(taps, noise, dst)
}

// MacRow64 is the float64 fused MAC-row kernel; see MacRow32.
func MacRow64(taps, noise, dst []float64) {
	if len(noise) < len(taps)-1+len(dst) {
		panic("simd: MacRow64 noise window shorter than taps-1+dst")
	}
	chosen.macRow64(taps, noise, dst)
}

// axpyGeneric is the portable 8-lane manually unrolled MAC loop. The
// unroll buys instruction-level parallelism (eight independent
// load/mul/add/store chains in flight); full-slice-expression reslicing
// keeps the inner block free of bounds checks.
func axpyGeneric[F Float](alpha F, x, y []F) {
	i := 0
	for ; i+8 <= len(y); i += 8 {
		xr := x[i : i+8 : i+8]
		yr := y[i : i+8 : i+8]
		yr[0] += alpha * xr[0]
		yr[1] += alpha * xr[1]
		yr[2] += alpha * xr[2]
		yr[3] += alpha * xr[3]
		yr[4] += alpha * xr[4]
		yr[5] += alpha * xr[5]
		yr[6] += alpha * xr[6]
		yr[7] += alpha * xr[7]
	}
	for ; i < len(y); i++ {
		y[i] += alpha * x[i]
	}
}

func axpyGeneric32(alpha float32, x, y []float32) { axpyGeneric(alpha, x, y) }
func axpyGeneric64(alpha float64, x, y []float64) { axpyGeneric(alpha, x, y) }

// macRowGeneric is the portable fused MAC-row loop: four output
// accumulators per block stay in registers across the whole tap row,
// giving four independent FP chains without touching dst between taps.
// Per output the adds run in tap order, so on amd64 and noasm builds
// (no fusing) the result is bit-identical to per-tap axpy sweeps; on
// arm64 the compiler emits FMADD just as the NEON kernels use FMLA.
func macRowGeneric[F Float](taps, noise, dst []F) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		acc0, acc1, acc2, acc3 := dst[i], dst[i+1], dst[i+2], dst[i+3]
		for a, t := range taps {
			nr := noise[a+i : a+i+4 : a+i+4]
			acc0 += t * nr[0]
			acc1 += t * nr[1]
			acc2 += t * nr[2]
			acc3 += t * nr[3]
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = acc0, acc1, acc2, acc3
	}
	for ; i < len(dst); i++ {
		acc := dst[i]
		for a, t := range taps {
			acc += t * noise[a+i]
		}
		dst[i] = acc
	}
}

func macRowGeneric32(taps, noise, dst []float32) { macRowGeneric(taps, noise, dst) }
func macRowGeneric64(taps, noise, dst []float64) { macRowGeneric(taps, noise, dst) }
