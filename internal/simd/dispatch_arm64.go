//go:build arm64 && !noasm

package simd

// NEON (ASIMD) is architectural baseline on arm64, so there is no
// feature probe: the assembly kernels are selected unconditionally.

func axpy32NEON(alpha float32, x, y []float32)
func axpy64NEON(alpha float64, x, y []float64)

// hostKernels lists the portable loops and the NEON set. The NEON set's
// fused MAC row runs the portable blocked loop: the compiler emits
// scalar FMADD for its accumulate pattern, which rounds identically to
// the NEON kernels' FMLA, so composing axpy and fusing the row agree
// bit-for-bit on arm64 too.
func hostKernels() []kernelSet {
	return []kernelSet{goKernels, {"neon", axpy32NEON, axpy64NEON, macRowGeneric32, macRowGeneric64,
		blockStagesGeneric}}
}
