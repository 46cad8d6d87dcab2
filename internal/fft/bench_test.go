package fft

import (
	"fmt"
	"testing"

	"roughsurface/internal/simd"
)

func BenchmarkForward1D(b *testing.B) {
	for _, n := range []int{256, 1024, 4096, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := MustPlan(n)
			src := randSeq(n, 1)
			dst := make([]complex128, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Forward(dst, src)
			}
		})
	}
}

func BenchmarkForward2D(b *testing.B) {
	for _, workers := range []int{1, 0} {
		for _, n := range []int{256, 512, 1024} {
			name := fmt.Sprintf("n=%dx%d/workers=auto", n, n)
			if workers == 1 {
				name = fmt.Sprintf("n=%dx%d/workers=1", n, n)
			}
			b.Run(name, func(b *testing.B) {
				p := MustPlan2D(n, n)
				p.Workers = workers
				data := rand2D(n, n, 1)
				work := make([]complex128, len(data))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(work, data)
					p.Forward(work)
				}
			})
		}
	}
}

// BenchmarkColumnBlock times one column block's forward transform,
// the kernel the column passes run per block, for every kernel set the
// host runs at ny = 256 and 512 with all 16 lanes in use, against the
// same 16 columns through the scalar one-dimensional transform. The
// block starts bit-reversed, as the column gather leaves it.
func BenchmarkColumnBlock(b *testing.B) {
	for _, ny := range []int{256, 512} {
		p := MustPlan(ny)
		src := randSeq(colBlock*ny, 1)
		buf := make([]complex128, len(src))
		for _, k := range simd.BlockFFTs() {
			b.Run(fmt.Sprintf("ny=%d/bw=%d/%s", ny, colBlock, k.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(buf, src)
					k.Stages(buf, p.twiddle, false)
				}
			})
		}
		b.Run(fmt.Sprintf("ny=%d/bw=%d/scalar", ny, colBlock), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				for c := 0; c < colBlock; c++ {
					col := buf[c*ny : (c+1)*ny]
					p.radix2(col, false)
				}
			}
		})
	}
}

// BenchmarkCorrelateRealRows times the fused correlation at the
// paper-batch tile shape, once per kernel set the host runs: a 64²
// tile of a 231² kernel reads a 294-row noise window padded to 512²,
// and the caller extracts 64 rows. The unfused sub-benchmark is the
// same work as separate forward, spectrum-multiply and inverse passes
// on the default kernel set.
func BenchmarkCorrelateRealRows(b *testing.B) {
	const n, inRows, outRows = 512, 294, 64
	p := MustPlan2D(n, n)
	p.Workers = 1
	hx := p.HalfNx()
	kHat := make([]complex128, hx*n)
	p.ForwardReal(kHat, realSeq(n*n, 2))
	kBlocks := p.BlockInterleaved(kHat)
	src := realSeq(n*n, 1)
	clear(src[inRows*n:])
	pad := make([]float64, n*n)
	work := make([]complex128, hx*n)
	for _, k := range simd.BlockFFTs() {
		b.Run("fused/"+k.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(pad, src)
				p.correlateRealRows(k, pad, pad, kBlocks, work, inRows, outRows)
			}
		})
	}
	b.Run("unfused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(pad, src)
			p.forwardRealRows(work, pad, inRows)
			for j, k := range kHat {
				work[j] *= complex(real(k), -imag(k))
			}
			p.inverseReal(pad, work, 1/float64(n*n), outRows)
		}
	})
}
