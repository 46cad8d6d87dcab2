package fft

import (
	"fmt"
	"sync"

	"roughsurface/internal/par"
)

// Plan2D performs two-dimensional transforms of row-major data
// (ny rows of nx samples, index iy*nx+ix) by the row–column method.
// Row passes operate on contiguous memory; column passes gather each
// column into a pooled scratch buffer. Both passes are split across a
// worker pool sized by Workers.
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
// so every touched line is consumed fully.
const colBlock = 16

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

	p.colPass(data, p.nx, p.ny, p.ny, inverse, workers)

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
// and writing back rows [0, outRows) as colBlocks does.
func (p *Plan2D) colPass(data []complex128, ncols, inRows, outRows int, inverse bool, workers int) {
	p.colBlocks(data, ncols, inRows, outRows, workers, func(buf []complex128, _, bw int) {
		for b := 0; b < bw; b++ {
			col := buf[b*p.ny : (b+1)*p.ny]
			p.py.transform(col, col, inverse)
		}
	})
}

// colBlocks runs fn over data's columns a block at a time. Each block
// of bw ≤ colBlock columns starting at column x0 is gathered into a
// column-major buffer (column b at buf[b*ny:(b+1)*ny]); fn works on it
// in place, and the block is scattered back. Only data rows
// [0, inRows) are read; the gather zeroes the rest, as if those rows
// held zeros. Only rows [0, outRows) are written back; the rest of data
// is left as it was. Blocks are gathered and scattered whole so every
// touched cache line is consumed fully (a lone complex128 column stride
// wastes 3/4 of each 64-byte line); the block buffers come from the
// plan's pool so steady state allocates nothing.
func (p *Plan2D) colBlocks(data []complex128, ncols, inRows, outRows, workers int, fn func(buf []complex128, x0, bw int)) {
	blocks := (ncols + colBlock - 1) / colBlock
	par.For(blocks, workers, func(lo, hi int) {
		bp := p.colBuf.Get().(*[]complex128)
		buf := *bp
		for blk := lo; blk < hi; blk++ {
			x0 := blk * colBlock
			bw := min(colBlock, ncols-x0)
			// Gather: row-major reads, column-major (contiguous per
			// column) writes into buf.
			for iy := 0; iy < inRows; iy++ {
				src := data[iy*ncols+x0 : iy*ncols+x0+bw]
				for b, v := range src {
					buf[b*p.ny+iy] = v
				}
			}
			for b := 0; b < bw; b++ {
				clear(buf[b*p.ny+inRows : (b+1)*p.ny])
			}
			fn(buf, x0, bw)
			for iy := 0; iy < outRows; iy++ {
				dst := data[iy*ncols+x0 : iy*ncols+x0+bw]
				for b := range dst {
					dst[b] = buf[b*p.ny+iy]
				}
			}
		}
		p.colBuf.Put(bp)
	})
}
