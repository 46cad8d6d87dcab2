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

// planeView is a window's noise source inside a caller's plane: the
// plane holds Field.FillRow output at row stride pnx, and the window's
// first noise sample sits at data[off]. The zero view (nil data) means
// no plane: the render draws its own noise.
type planeView struct {
	data []float64
	pnx  int
	off  int
}

// row returns the first n noise samples of the window's noise row r.
func (v planeView) row(r, n int) []float64 {
	o := v.off + r*v.pnx
	return v.data[o : o+n]
}

// planeArgs validates a ConvolvePlaneInto call and returns the view of
// the window's noise inside the plane. The plane holds field samples
// for the lattice rectangle [pi0, pi0+pnx) × [pj0, …), row-major at
// stride pnx; it must cover the kernel's NoiseWindow for the requested
// output window.
func (g *Generator) planeArgs(dstLen, stride int, plane []float64, pnx int, pi0, pj0, i0, j0 int64, nx, ny int) planeView {
	checkWindow(dstLen, stride, nx, ny)
	if pnx < 1 || len(plane)%pnx != 0 {
		panic(fmt.Sprintf("convgen: noise plane of %d samples is not whole rows of %d", len(plane), pnx))
	}
	pny := len(plane) / pnx
	ni0, nj0, wnx, wny := g.kernel.NoiseWindow(i0, j0, nx, ny)
	offX, offY := ni0-pi0, nj0-pj0
	if offX < 0 || offY < 0 || offX+int64(wnx) > int64(pnx) || offY+int64(wny) > int64(pny) {
		panic(fmt.Sprintf("convgen: noise plane %dx%d at (%d,%d) does not cover window %dx%d at (%d,%d) (needs %dx%d at (%d,%d))",
			pnx, pny, pi0, pj0, nx, ny, i0, j0, wnx, wny, ni0, nj0))
	}
	return planeView{data: plane, pnx: pnx, off: int(offY)*pnx + int(offX)}
}

// FillPlane fills a noise plane of whole rows of pnx samples with the
// generator's field at precision F: row r holds the lattice samples
// [pi0, pi0+pnx) of row pj0+r, exactly as Field.FillRow (float64) or
// Field.FillRow32 (float32) produce them. A float64 plane is what
// ConvolvePlaneInto reads. Same-seed generators see the same field, so
// one plane serves all of them.
func FillPlane[F simd.Float](g *Generator, plane []F, pnx int, pi0, pj0 int64, workers int) {
	fill := laneOf[F](g).fill
	par.For(len(plane)/pnx, workers, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			fill(g.field, plane[r*pnx:(r+1)*pnx], pi0, pj0+int64(r))
		}
	})
}

// ConvolvePlaneInto renders the window like RenderInto at precision F
// but reads field samples from the caller-supplied plane instead of
// drawing its own. Sharing one plane across many windows (and across
// same-seed generators, which see the same field) removes the
// per-window Box–Muller cost at the price of the caller owning
// coverage. The plane is float64 FillRow output at both precisions. The
// engine is the one RenderInto picks for the window (EngineFor), and
// the result is bit-identical to RenderInto's: the float64 direct
// engine reads the plane in place, the float32 one narrows the
// window's noise from it once per sample (exactly Field.FillRow32's
// output), and the FFT engine copies the window's noise rows into its
// padded workspace where it would otherwise fill them, so all see the
// same noise values and do the same arithmetic.
func ConvolvePlaneInto[F simd.Float](g *Generator, dst []F, stride int, plane []float64, pnx int, pi0, pj0, i0, j0 int64, nx, ny, workers int) {
	v := g.planeArgs(len(dst), stride, plane, pnx, pi0, pj0, i0, j0, nx, ny)
	render(g, dst, stride, i0, j0, nx, ny, workers, v)
}
