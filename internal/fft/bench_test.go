package fft

import (
	"fmt"
	"testing"
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

// BenchmarkCorrelateRealRows times the fused correlation at the
// paper-batch tile shape: a 64² tile of a 231² kernel reads a 294-row
// noise window padded to 512², and the caller extracts 64 rows. The
// unfused sub-benchmark is the same work as separate forward,
// spectrum-multiply and inverse passes.
func BenchmarkCorrelateRealRows(b *testing.B) {
	const n, inRows, outRows = 512, 294, 64
	p := MustPlan2D(n, n)
	p.Workers = 1
	hx := p.HalfNx()
	kHat := make([]complex128, hx*n)
	p.ForwardReal(kHat, realSeq(n*n, 2))
	kCols := p.ColumnMajor(kHat)
	src := realSeq(n*n, 1)
	clear(src[inRows*n:])
	pad := make([]float64, n*n)
	work := make([]complex128, hx*n)
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(pad, src)
			p.CorrelateRealRows(pad, pad, kCols, work, inRows, outRows)
		}
	})
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
