package simd

import "fmt"

// FFT column-block kernels.
//
// The two-dimensional transforms run their column pass a block of
// BlockLanes columns at a time. A block is n rows of BlockLanes
// complex128 lanes, row-interleaved: lane b of row r sits at
// a[r*BlockLanes+b]. Every lane carries its own length-n column, and
// the kernels below run the same radix-2 arithmetic down all of them at
// once, so one broadcast twiddle serves a whole row of lanes.
//
// Each lane does exactly the scalar complex128 arithmetic of the
// one-dimensional radix-2 transform: the sums and differences of the
// first two stages, the ∓j rotation of the size-4 stage as a swap and a
// sign flip, and every twiddle product w·h as (wr·hr − wi·hi,
// wr·hi + wi·hr) with separate multiplies and adds (no FMA). The vector
// kernel forms w·h from the lane-wise products (wr, wr)·(hr, hi) and
// (−wi, wi)·(hi, hr); −(wi·hi) is exact and x + (−y) is x − y in IEEE
// arithmetic, so every lane rounds as the scalar transform does and the
// results are bit-identical (DESIGN.md §13).

// BlockLanes is the number of complex128 columns in one FFT column
// block: 16 columns fill four 64-byte cache lines per row.
const BlockLanes = 16

// BlockFFT is one kernel set's FFT column-block kernel.
type BlockFFT struct{ set *kernelSet }

// BlockFFTs returns the column-block kernel of every kernel set this
// build runs on this CPU, portable first; the last is DefaultBlockFFT.
func BlockFFTs() []BlockFFT {
	fs := make([]BlockFFT, len(kernels))
	for i := range kernels {
		fs[i] = BlockFFT{&kernels[i]}
	}
	return fs
}

// DefaultBlockFFT returns the column-block kernel of the kernel set
// the dispatch selected.
func DefaultBlockFFT() BlockFFT { return BlockFFT{&chosen} }

// Name reports the kernel set ("go", "avx2", "avx512" or "neon").
func (f BlockFFT) Name() string { return f.set.name }

// Stages runs the radix-2 decimation-in-time stages of a length-n
// transform (sizes 2, 4, …, n) down every lane of the n-row block a,
// in place. The rows must already be in bit-reversed order. The size-4
// stage rotates by −j, or by +j when inverse is set; tw holds the
// twiddles of stages 8, 16, …, n back to back in the direction wanted
// (stage s at tw[s/2−4:s−4], e^{∓j2πk/s} for k < s/2), as the fft
// package's plans lay them out. The transform is unscaled.
func (f BlockFFT) Stages(a, tw []complex128, inverse bool) {
	n := blockRows(a)
	if n >= 8 && len(tw) < n-4 {
		panic(fmt.Sprintf("simd: Stages twiddles %d, want %d for %d rows", len(tw), n-4, n))
	}
	if n < 2 {
		return // a one-row block has no stages; the kernels assume n ≥ 2
	}
	f.set.blockStages(a, tw, inverse)
}

// blockRows validates a block and returns its row count, a power of
// two.
func blockRows(a []complex128) int {
	n := len(a) / BlockLanes
	if len(a)%BlockLanes != 0 || n&(n-1) != 0 || n == 0 {
		panic(fmt.Sprintf("simd: FFT block of %d elements is not a power-of-two number of %d-lane rows", len(a), BlockLanes))
	}
	return n
}

// blockRow returns row r of a block.
func blockRow(a []complex128, r int) *[BlockLanes]complex128 {
	return (*[BlockLanes]complex128)(a[r*BlockLanes:])
}

// blockStagesGeneric is the portable Stages kernel: the scalar radix-2
// stages with a loop over the lanes of a row innermost.
func blockStagesGeneric(a, tw []complex128, inverse bool) {
	n := len(a) / BlockLanes
	// Stage size=2: butterflies with w = 1.
	for r := 0; r < n; r += 2 {
		x, y := blockRow(a, r), blockRow(a, r+1)
		for b := range x {
			x[b], y[b] = x[b]+y[b], x[b]-y[b]
		}
	}
	if n == 2 {
		return
	}
	// Stage size=4: twiddles 1 and −j (forward) or +j (inverse).
	for r := 0; r < n; r += 4 {
		r0, r1, r2, r3 := blockRow(a, r), blockRow(a, r+1), blockRow(a, r+2), blockRow(a, r+3)
		for b := range r0 {
			x0, x1, x2, x3 := r0[b], r1[b], r2[b], r3[b]
			var t3 complex128
			if inverse {
				t3 = complex(-imag(x3), real(x3)) // +j·x3
			} else {
				t3 = complex(imag(x3), -real(x3)) // −j·x3
			}
			r0[b] = x0 + x2
			r2[b] = x0 - x2
			r1[b] = x1 + t3
			r3[b] = x1 - t3
		}
	}
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		w := tw[half-4 : size-4 : size-4]
		for start := 0; start < n; start += size {
			for k, wk := range w {
				lo, hi := blockRow(a, start+k), blockRow(a, start+half+k)
				for b := range lo {
					t := wk * hi[b]
					hi[b] = lo[b] - t
					lo[b] = lo[b] + t
				}
			}
		}
	}
}
