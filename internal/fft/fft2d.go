package fft

import (
	"fmt"
	"sync"

	"roughsurface/internal/par"
	"roughsurface/internal/simd"
)

// Plan2D performs two-dimensional transforms of row-major data
// (ny rows of nx samples, index iy*nx+ix) by the row–column method.
// Row passes operate on contiguous memory; column passes gather blocks
// of columns into a pooled scratch buffer and transform every column of
// a block at once (colBlocks). Both passes are split across a worker
// pool sized by Workers.
type Plan2D struct {
	nx, ny int
	px, py *Plan

	// Workers bounds the number of concurrent goroutines used per pass.
	// Zero (the default) means par.DefaultWorkers(); 1 forces serial
	// execution, which some callers use for reproducible profiling.
	// Plans returned by CachedPlan2D/CachedPlan2DWorkers are shared:
	// do not mutate their Workers field — request the bound through
	// CachedPlan2DWorkers instead.
	Workers int

	// colBuf pools the per-goroutine column-block gather buffers so
	// steady-state transforms allocate nothing.
	colBuf sync.Pool
}

// colBlock is the number of columns gathered per block in column
// passes: 16 complex128 columns fill four 64-byte cache lines per row,
// so every touched line is consumed fully, and they are the lanes of
// the simd column-block kernels.
const colBlock = simd.BlockLanes

// blockFFT is the column-block kernel set the transforms run; tests
// and benchmarks pass each set the host runs instead.
var blockFFT = simd.DefaultBlockFFT()

// NewPlan2D creates a plan for nx×ny transforms. The 1D sub-plans are
// drawn from the process-wide plan cache (they are immutable and safe
// to share), so constructing many Plan2D values of the same geometry is
// cheap.
func NewPlan2D(nx, ny int) (*Plan2D, error) {
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("fft: invalid 2D size %dx%d", nx, ny)
	}
	px, err := CachedPlan(nx)
	if err != nil {
		return nil, err
	}
	py := px
	if ny != nx {
		py, err = CachedPlan(ny)
		if err != nil {
			return nil, err
		}
	}
	p := &Plan2D{nx: nx, ny: ny, px: px, py: py}
	p.colBuf.New = func() any { s := make([]complex128, colBlock*ny); return &s }
	return p, nil
}

// MustPlan2D is NewPlan2D that panics on error.
func MustPlan2D(nx, ny int) *Plan2D {
	p, err := NewPlan2D(nx, ny)
	if err != nil {
		panic(err)
	}
	return p
}

// Nx reports the row length (fast axis).
func (p *Plan2D) Nx() int { return p.nx }

// Ny reports the number of rows (slow axis).
func (p *Plan2D) Ny() int { return p.ny }

// Forward computes the unnormalized 2D DFT of data in place.
func (p *Plan2D) Forward(data []complex128) { p.transform(data, false, false) }

// Inverse computes the 2D inverse DFT of data in place, including the
// 1/(nx·ny) normalization.
func (p *Plan2D) Inverse(data []complex128) { p.transform(data, true, true) }

// InverseUnscaled computes the e^{+j...} transform without normalization.
func (p *Plan2D) InverseUnscaled(data []complex128) { p.transform(data, true, false) }

// workerBound resolves the plan's Workers field to a concrete bound.
func (p *Plan2D) workerBound() int {
	if p.Workers <= 0 {
		return par.DefaultWorkers()
	}
	return p.Workers
}

func (p *Plan2D) transform(data []complex128, inverse, scale bool) {
	if len(data) != p.nx*p.ny {
		panic(fmt.Sprintf("fft: 2D length mismatch: plan %dx%d, data %d", p.nx, p.ny, len(data)))
	}
	workers := p.workerBound()

	// Row pass: contiguous, in place.
	par.For(p.ny, workers, func(lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			row := data[iy*p.nx : (iy+1)*p.nx]
			p.px.transform(row, row, inverse)
		}
	})

	p.colPass(blockFFT, data, p.nx, p.ny, p.ny, inverse, workers)

	if scale {
		s := complex(1/float64(p.nx*p.ny), 0)
		par.For(len(data), workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				data[i] *= s
			}
		})
	}
}

// colPass runs the length-ny transform down each of ncols columns of
// data (row-major with row stride ncols; ncols is nx for full-spectrum
// transforms and HalfNx for the real path), reading rows [0, inRows)
// and writing back rows [0, outRows) as colBlocks does, with the
// column-block kernels of k.
func (p *Plan2D) colPass(k simd.BlockFFT, data []complex128, ncols, inRows, outRows int, inverse bool, workers int) {
	p.colBlocks(data, ncols, inRows, outRows, workers, func(buf []complex128, _, bw int) {
		if p.py.blu != nil {
			p.eachLane(buf, bw, func(col []complex128, _ int) { p.py.transform(col, col, inverse) })
			return
		}
		k.Stages(buf, p.py.stageTw(inverse), inverse)
	})
}

// colBlocks runs fn over data's columns a block at a time. Each block
// of bw ≤ colBlock columns starting at column x0 is gathered into a
// row-interleaved buffer, column b of row iy at buf[iy*colBlock+b]
// (one contiguous copy per row; lanes past bw are zeroed). For a
// power-of-two ny the rows land in bit-reversed order, the order the
// radix-2 stages start from, so the gather is also the transform's
// permutation; for other lengths they stay in natural order. fn works
// on the block in place and leaves its result in natural row order,
// and the block is scattered back. Only data rows [0, inRows) are read;
// the gather zeroes the rest, as if those rows held zeros. Only rows
// [0, outRows) are written back; the rest of data is left as it was.
// The block buffers come from the plan's pool so steady state
// allocates nothing.
func (p *Plan2D) colBlocks(data []complex128, ncols, inRows, outRows, workers int, fn func(buf []complex128, x0, bw int)) {
	rev := p.py.rev
	blocks := (ncols + colBlock - 1) / colBlock
	par.For(blocks, workers, func(lo, hi int) {
		bp := p.colBuf.Get().(*[]complex128)
		buf := *bp
		for blk := lo; blk < hi; blk++ {
			x0 := blk * colBlock
			bw := min(colBlock, ncols-x0)
			for iy := 0; iy < p.ny; iy++ {
				r := iy
				if rev != nil {
					r = rev[iy]
				}
				row := buf[r*colBlock : (r+1)*colBlock]
				if iy >= inRows {
					clear(row)
					continue
				}
				src := data[iy*ncols+x0 : iy*ncols+x0+bw]
				copy(row, src)
				clear(row[bw:])
			}
			fn(buf, x0, bw)
			for iy := 0; iy < outRows; iy++ {
				copy(data[iy*ncols+x0:iy*ncols+x0+bw], buf[iy*colBlock:])
			}
		}
		p.colBuf.Put(bp)
	})
}

// eachLane runs fn on each of the first bw lanes of a row-interleaved
// block as a contiguous column: lane b is copied out to scratch, fn
// works on it in place, and it is copied back. It serves the column
// lengths the radix-2 block kernels cannot (Bluestein lengths).
func (p *Plan2D) eachLane(buf []complex128, bw int, fn func(col []complex128, b int)) {
	sp := p.py.getScratch()
	col := *sp
	for b := 0; b < bw; b++ {
		for iy := range col {
			col[iy] = buf[iy*colBlock+b]
		}
		fn(col, b)
		for iy, v := range col {
			buf[iy*colBlock+b] = v
		}
	}
	p.py.putScratch(sp)
}
