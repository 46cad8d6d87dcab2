//go:build noasm || (!amd64 && !arm64)

package simd

// Pure-Go build: every architecture without a hand-written kernel, and
// any build with -tags noasm, runs the portable unrolled loop.

func hostKernels() []kernelSet { return []kernelSet{goKernels} }
