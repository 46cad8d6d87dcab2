package fft

import (
	"fmt"
	"math"
	"testing"

	"roughsurface/internal/rng"
	"roughsurface/internal/simd"
)

// specialSeq is a length-n column mixing random values with signed
// zeros and very large and very small magnitudes (down to subnormals),
// kept finite through every stage of a length-n transform. Every third
// seed gives a column of signed zeros alone, whose transform is all
// signed zeros and pins the sign of every zero sum and product.
func specialSeq(n int, seed uint64) []complex128 {
	specials := []float64{0, math.Copysign(0, -1), 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 1, -1}
	src := rng.NewSource(seed)
	s := make([]complex128, n)
	if seed%3 == 0 {
		for i := range s {
			s[i] = complex(specials[int(src.Float64()*2)], specials[int(src.Float64()*2)])
		}
		return s
	}
	for i := range s {
		re, im := src.Float64()*2-1, src.Float64()*2-1
		if src.Float64() < 0.3 {
			re = specials[int(src.Float64()*float64(len(specials)))]
		}
		if src.Float64() < 0.3 {
			im = specials[int(src.Float64()*float64(len(specials)))]
		}
		s[i] = complex(re, im)
	}
	return s
}

// sameBits reports whether got and want hold the same float64 bits.
func sameBits(got, want complex128) bool {
	return math.Float64bits(real(got)) == math.Float64bits(real(want)) &&
		math.Float64bits(imag(got)) == math.Float64bits(imag(want))
}

// TestColumnBlocksBitExact pins the column-block kernels of every
// kernel set the host runs to the scalar one-dimensional transform, bit
// for bit: each column the column pass transforms must equal
// Plan.transform of that column, rows past inRows taken as zero. It
// covers every power-of-two length from 1 to 4096, block widths 1, 5,
// 15 and 16 and 257 columns (sixteen full blocks and a one-column
// last block), both directions, and signed zeros, huge, tiny and
// subnormal values.
func TestColumnBlocksBitExact(t *testing.T) {
	for _, k := range simd.BlockFFTs() {
		for n := 1; n <= 4096; n *= 2 {
			p := MustPlan2D(8, n)
			for _, ncols := range []int{1, 5, 15, 16, 257} {
				if ncols == 257 && n > 256 {
					continue
				}
				for _, inverse := range []bool{false, true} {
					inRows := n
					if n > 2 && ncols != 16 {
						inRows = n/2 + 1
					}
					name := fmt.Sprintf("%s/n=%d/cols=%d/inverse=%v/in=%d", k.Name(), n, ncols, inverse, inRows)
					cols := make([][]complex128, ncols)
					data := make([]complex128, n*ncols)
					for c := range cols {
						cols[c] = specialSeq(n, uint64(n*1000+c*10+ncols))
						clear(cols[c][inRows:])
						for iy, v := range cols[c] {
							data[iy*ncols+c] = v
						}
					}
					p.colPass(k, data, ncols, inRows, n, inverse, 1)
					for c, col := range cols {
						p.py.transform(col, col, inverse)
						for iy, want := range col {
							if got := data[iy*ncols+c]; !sameBits(got, want) {
								t.Fatalf("%s: column %d row %d = %v, want %v", name, c, iy, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestCorrelateBlocksBitExact pins the fused correlate block (forward
// stages, conjugate multiply, inverse stages) of every kernel set to the
// scalar sequence per column — forward transform, multiply by the
// conjugate spectrum, inverse transform — at full and partial blocks.
func TestCorrelateBlocksBitExact(t *testing.T) {
	for _, k := range simd.BlockFFTs() {
		for _, c := range []struct{ nx, ny int }{{512, 256}, {64, 32}, {32, 64}, {16, 16}, {8, 4}, {4, 2}, {6, 1}} {
			p := MustPlan2D(c.nx, c.ny)
			hx := p.HalfNx()
			kHat := make([]complex128, hx*c.ny)
			p.ForwardReal(kHat, realSeq(c.nx*c.ny, uint64(c.nx+c.ny)))
			kBlocks := p.BlockInterleaved(kHat)
			for _, inRows := range []int{c.ny, (c.ny + 1) / 2} {
				src := realSeq(c.nx*c.ny, uint64(c.nx*3+inRows))
				clear(src[inRows*c.nx:])
				got := make([]float64, c.nx*c.ny)
				p.correlateRealRows(k, got, src, kBlocks, make([]complex128, hx*c.ny), inRows, c.ny)

				// Scalar reference: row transforms, then each column
				// through Plan.transform, the conjugate multiply and the
				// inverse, then the inverse row transforms.
				spec := make([]complex128, hx*c.ny)
				for iy := 0; iy < inRows; iy++ {
					p.px.ForwardReal(spec[iy*hx:(iy+1)*hx], src[iy*c.nx:(iy+1)*c.nx])
				}
				col := make([]complex128, c.ny)
				for kx := 0; kx < hx; kx++ {
					for iy := range col {
						col[iy] = spec[iy*hx+kx]
					}
					p.py.transform(col, col, false)
					for iy := range col {
						t := kHat[iy*hx+kx]
						col[iy] *= complex(real(t), -imag(t))
					}
					p.py.transform(col, col, true)
					for iy, v := range col {
						spec[iy*hx+kx] = v
					}
				}
				want := make([]float64, c.nx*c.ny)
				p.rowsInverse(want, spec, 1/float64(c.nx*c.ny), c.ny, 1)
				for i, w := range want {
					if math.Float64bits(got[i]) != math.Float64bits(w) {
						t.Fatalf("%s %dx%d in=%d: sample %d = %v, want %v", k.Name(), c.nx, c.ny, inRows, i, got[i], w)
					}
				}
			}
		}
	}
}

// TestBlockInterleavedLayout: bin (kx, ky) lands at
// (kx−b)·ny + ky·16 + b, and the padding lanes of the last block are
// zero.
func TestBlockInterleavedLayout(t *testing.T) {
	p := MustPlan2D(40, 3) // 21 columns: one full block and one of 5
	hx := p.HalfNx()
	spec := make([]complex128, hx*3)
	for i := range spec {
		spec[i] = complex(float64(i+1), 0)
	}
	got := p.BlockInterleaved(spec)
	if len(got) != 2*colBlock*3 {
		t.Fatalf("length %d, want %d", len(got), 2*colBlock*3)
	}
	for i, v := range got {
		blk, iy, b := i/(colBlock*3), i%(colBlock*3)/colBlock, i%colBlock
		kx := blk*colBlock + b
		want := complex128(0)
		if kx < hx {
			want = spec[iy*hx+kx]
		}
		if !sameBits(v, want) {
			t.Fatalf("element %d (kx %d, ky %d) = %v, want %v", i, kx, iy, v, want)
		}
	}
}
