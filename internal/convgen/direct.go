package convgen

import (
	"roughsurface/internal/par"
	"roughsurface/internal/simd"
)

// convDirect is the precision-generic direct-convolution core: it
// evaluates f(i,j) = Σ_{a,b} taps[b][a]·noise(i+a, j+b) for an nx×ny
// window, writing row j of the output at dst[j*stride : j*stride+nx].
//
// The tap sum is reformulated as fused MAC-row sweeps — one call per
// (output row, tap row) with the output accumulators held in registers
// across every tap of the row — which removes the serial accumulator
// dependency of the literal per-sample sum, hands the inner loop to
// the simd kernels, and amortizes call overhead over the whole tap row
// (the per-tap axpy formulation paid a dispatch and a dst load/store
// sweep per tap, the dominant cost at tile-sized rows). For every
// output sample the additions still happen in the same (b, a) order as
// the literal sum, so the reformulation is bit-identical to it at both
// precisions (DESIGN.md §13); the float64 instantiation is therefore
// byte-compatible with the pre-SIMD reference engine.
//
// The taps and MAC-row kernel come from the call's lane (the float32
// or float64 simd wrapper, picked once per call), so the hot loop
// performs no interface boxing.
//
// A single-worker call (every tile of a tiled render) runs the rows
// directly: a closure handed to par.For escapes, and building one per
// call would cost a heap allocation per tile and component.
func convDirect[F simd.Float](g *Generator, l *lane[F], dst []F, stride, nx, ny int, noise []F, wx, workers int) {
	if workers == 1 {
		convRows(g, l, dst, stride, nx, noise, wx, 0, ny)
		return
	}
	par.For(ny, workers, func(lo, hi int) { convRows(g, l, dst, stride, nx, noise, wx, lo, hi) })
}

// convRows is convDirect over output rows [lo, hi).
func convRows[F simd.Float](g *Generator, l *lane[F], dst []F, stride, nx int, noise []F, wx, lo, hi int) {
	knx, kny := g.kernel.Nx, g.kernel.Ny
	for j := lo; j < hi; j++ {
		row := dst[j*stride : j*stride+nx]
		clear(row)
		for b := 0; b < kny; b++ {
			off := (j + b) * wx
			l.macRow(l.taps[b*knx:(b+1)*knx], noise[off:off+knx-1+nx], row)
		}
	}
}
