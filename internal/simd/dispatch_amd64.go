//go:build amd64 && !noasm

package simd

// Assembly kernel selection on amd64. The VEX kernels need AVX register
// state enabled by the OS as well as the CPU flag, so the check is the
// full OSXSAVE → XGETBV → AVX2 chain, probed once at init; the AVX-512
// kernels additionally need AVX512F and the opmask and ZMM state.

// cpuid executes CPUID with the given leaf/subleaf (axpy_amd64.s).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (axpy_amd64.s).
func xgetbv() (eax, edx uint32)

func axpy32AVX(alpha float32, x, y []float32)
func axpy64AVX(alpha float64, x, y []float64)

func macRow32AVX(taps, noise, dst []float32)
func macRow64AVX(taps, noise, dst []float64)

func macRow32AVX512(taps, noise, dst []float32)
func macRow64AVX512(taps, noise, dst []float64)

// FFT column-block stages (fftblock_amd64.s).
func blockStagesAVX2(a, tw []complex128, inverse bool)

func hasAVX2() bool {
	const osxsave = 1 << 27
	const avx = 1 << 28
	_, _, c, _ := cpuid(1, 0)
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	// The OS must save/restore XMM (bit 1) and YMM (bit 2) state.
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}

// hasAVX512 reports AVX512F on top of hasAVX2, with the OS saving the
// XMM, YMM, opmask, upper-ZMM and high-ZMM state (XCR0 bits 1, 2, 5, 6
// and 7).
func hasAVX512() bool {
	if !hasAVX2() {
		return false
	}
	if lo, _ := xgetbv(); lo&0xE6 != 0xE6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<16) != 0 // AVX512F
}

// hostKernels lists the portable loops, then the AVX2 kernels and the
// AVX-512 MAC rows where the CPU runs them. Axpy and the FFT block
// stages have no AVX-512 form: Axpy is memory-bound, and ZMM block
// stages ran only 5–10% faster than the YMM ones at the layer, under
// 1% of a render, so the AVX2 kernels are kept.
func hostKernels() []kernelSet {
	ks := []kernelSet{goKernels}
	if !hasAVX2() {
		return ks
	}
	ks = append(ks, kernelSet{"avx2", axpy32AVX, axpy64AVX, macRow32AVX, macRow64AVX,
		blockStagesAVX2})
	if hasAVX512() {
		ks = append(ks, kernelSet{"avx512", axpy32AVX, axpy64AVX, macRow32AVX512, macRow64AVX512,
			blockStagesAVX2})
	}
	return ks
}
