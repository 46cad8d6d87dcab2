package convgen

import (
	"fmt"

	"roughsurface/internal/par"
	"roughsurface/internal/simd"
)

// NoiseWindow reports the lattice rectangle of field samples the kernel
// reads to render outputs [i0, i0+nx) × [j0, j0+ny): origin
// (i0−CX, j0−CY), size (nx+Nx−1) × (ny+Ny−1). Callers that batch many
// windows against one pre-filled noise plane (the inhomo tile engine)
// size the plane as the union of these rectangles.
func (k *Kernel) NoiseWindow(i0, j0 int64, nx, ny int) (ni0, nj0 int64, wnx, wny int) {
	return i0 - int64(k.CX), j0 - int64(k.CY), nx + k.Nx - 1, ny + k.Ny - 1
}

// convolvePlaneArgs validates a ConvolveNoiseInto* call and returns the
// plane offset of the window's first noise sample. The plane holds
// field samples for the lattice rectangle [pi0, pi0+pnx) × [pj0, …),
// row-major at stride pnx; it must cover the kernel's NoiseWindow for
// the requested output window.
func (g *Generator) convolvePlaneArgs(dstLen, stride int, planeLen, pnx int, pi0, pj0, i0, j0 int64, nx, ny int) int {
	checkWindow(dstLen, stride, nx, ny)
	if pnx < 1 || planeLen%pnx != 0 {
		panic(fmt.Sprintf("convgen: noise plane of %d samples is not whole rows of %d", planeLen, pnx))
	}
	pny := planeLen / pnx
	ni0, nj0, wnx, wny := g.kernel.NoiseWindow(i0, j0, nx, ny)
	offX, offY := ni0-pi0, nj0-pj0
	if offX < 0 || offY < 0 || offX+int64(wnx) > int64(pnx) || offY+int64(wny) > int64(pny) {
		panic(fmt.Sprintf("convgen: noise plane %dx%d at (%d,%d) does not cover window %dx%d at (%d,%d) (needs %dx%d at (%d,%d))",
			pnx, pny, pi0, pj0, nx, ny, i0, j0, wnx, wny, ni0, nj0))
	}
	return int(offY)*pnx + int(offX)
}

// FillPlane fills a noise plane of whole rows of pnx samples with the
// generator's field at precision F: row r holds the lattice samples
// [pi0, pi0+pnx) of row pj0+r, exactly as Field.FillRow (float64) or
// Field.FillRow32 (float32) produce them — the plane ConvolvePlaneInto
// reads. Same-seed generators see the same field, so one plane serves
// all of them.
func FillPlane[F simd.Float](g *Generator, plane []F, pnx int, pi0, pj0 int64, workers int) {
	fill := laneOf[F](g).fill
	par.For(len(plane)/pnx, workers, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			fill(g.field, plane[r*pnx:(r+1)*pnx], pi0, pj0+int64(r))
		}
	})
}

// ConvolveNoiseInto renders the window like GenerateAtInto but reads
// field samples from the caller-supplied plane instead of materializing
// its own noise window. Sharing one plane across many windows (and
// across same-seed generators, which see the same field) removes the
// per-window Box–Muller cost — the dominant term for small kernels —
// at the price of the caller owning coverage. The plane must hold
// Field.FillRow output for its rectangle; results are then bit-identical
// to GenerateAtInto's direct engine (same taps, same noise values, same
// summation order). Always runs the direct engine: plane reuse targets
// the many-small-windows regime where direct wins anyway.
func (g *Generator) ConvolveNoiseInto(dst []float64, stride int, plane []float64, pnx int, pi0, pj0, i0, j0 int64, nx, ny, workers int) {
	ConvolvePlaneInto(g, dst, stride, plane, pnx, pi0, pj0, i0, j0, nx, ny, workers)
}

// ConvolveNoiseInto32 is ConvolveNoiseInto at float32 render precision:
// the plane holds Field.FillRow32 output (the f64 field rounded once
// per sample), so results are bit-identical to GenerateAtInto32's
// direct engine.
func (g *Generator) ConvolveNoiseInto32(dst []float32, stride int, plane []float32, pnx int, pi0, pj0, i0, j0 int64, nx, ny, workers int) {
	ConvolvePlaneInto(g, dst, stride, plane, pnx, pi0, pj0, i0, j0, nx, ny, workers)
}

// ConvolvePlaneInto is the one body behind ConvolveNoiseInto and
// ConvolveNoiseInto32, at precision F.
func ConvolvePlaneInto[F simd.Float](g *Generator, dst []F, stride int, plane []F, pnx int, pi0, pj0, i0, j0 int64, nx, ny, workers int) {
	off := g.convolvePlaneArgs(len(dst), stride, len(plane), pnx, pi0, pj0, i0, j0, nx, ny)
	if workers == 0 {
		workers = g.Workers
	}
	convDirect(g, laneOf[F](g), dst, stride, nx, ny, plane[off:], pnx, workers)
}
