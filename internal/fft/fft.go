// Package fft implements the discrete Fourier transforms the surface
// generators are built on: one-dimensional complex transforms for any
// length (iterative radix-2 for powers of two, Bluestein's chirp-z
// algorithm otherwise) and two-dimensional row–column transforms with
// optional parallel execution.
//
// Conventions follow the paper (eqns 11–12):
//
//	forward:  F[k] = Σ_n f[n]·e^{-j2πnk/N}        (unnormalized)
//	inverse:  f[n] = (1/N)·Σ_k F[k]·e^{+j2πnk/N}
//
// Plans hold precomputed twiddle tables and are safe for concurrent use;
// per-call scratch is drawn from an internal pool.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Plan holds the precomputed tables for transforms of a fixed length.
// The zero value is not usable; construct with NewPlan.
type Plan struct {
	n       int
	logN    int          // valid when power of two
	rev     []int        // bit-reversal permutation (power of two only)
	twiddle []complex128 // forward twiddles per stage, see stageTwiddles (power of two only)
	twidInv []complex128 // conjugate table, so the hot loop never branches
	blu     *bluestein   // non power-of-two path
	scratch sync.Pool    // []complex128 of length n for out-of-place calls

	realOnce sync.Once // guards rfft construction (see realfft.go)
	rfft     *realFFT  // packed real-input path; nil when not applicable
}

// NewPlan creates a transform plan for sequences of length n (n >= 1).
func NewPlan(n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("fft: invalid length %d", n)
	}
	p := &Plan{n: n}
	p.scratch.New = func() any { s := make([]complex128, n); return &s }
	if isPow2(n) {
		p.logN = bits.TrailingZeros(uint(n))
		p.rev = bitReversal(n)
		p.twiddle = stageTwiddles(n)
		p.twidInv = make([]complex128, len(p.twiddle))
		for i, w := range p.twiddle {
			p.twidInv[i] = complex(real(w), -imag(w))
		}
		return p, nil
	}
	b, err := newBluestein(n)
	if err != nil {
		return nil, err
	}
	p.blu = b
	return p, nil
}

// MustPlan is NewPlan that panics on error; for lengths known-good at
// call sites (for example derived from validated grid sizes).
func MustPlan(n int) *Plan {
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// N reports the transform length the plan was built for.
func (p *Plan) N() int { return p.n }

// Forward computes the unnormalized forward DFT of src into dst.
// dst and src must have length N; they may be the same slice.
func (p *Plan) Forward(dst, src []complex128) {
	p.transform(dst, src, false)
}

// Inverse computes the inverse DFT (including the 1/N factor) of src
// into dst. dst and src must have length N; they may be the same slice.
func (p *Plan) Inverse(dst, src []complex128) {
	p.transform(dst, src, true)
	scale := complex(1/float64(p.n), 0)
	for i := range dst {
		dst[i] *= scale
	}
}

// InverseUnscaled computes the inverse-kernel DFT (e^{+j...}) without the
// 1/N normalization. The generators use this where the paper's algebra
// carries the N factor explicitly (e.g. f = Σ v·u·e^{+j...}).
func (p *Plan) InverseUnscaled(dst, src []complex128) {
	p.transform(dst, src, true)
}

func (p *Plan) transform(dst, src []complex128, inverse bool) {
	if len(dst) != p.n || len(src) != p.n {
		panic(fmt.Sprintf("fft: length mismatch: plan %d, dst %d, src %d", p.n, len(dst), len(src)))
	}
	if p.blu != nil {
		p.blu.transform(dst, src, inverse)
		return
	}
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	p.radix2(dst, inverse)
}

// radix2 runs the iterative decimation-in-time transform in place. The
// first two stages are specialized (twiddles 1 and ∓j need no complex
// multiply) and the remaining stages read a per-direction twiddle table,
// keeping the inner loop branch-free. Each stage's twiddles are
// contiguous (stageTwiddles), so the butterfly loop walks its table,
// the low half and the high half of a block in step, with no strided
// loads and no bounds checks.
func (p *Plan) radix2(a []complex128, inverse bool) {
	n := p.n
	if n == 1 {
		return
	}
	for i, j := range p.rev {
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	// Stage size=2: butterflies with w = 1.
	for k := 0; k < n; k += 2 {
		a[k], a[k+1] = a[k]+a[k+1], a[k]-a[k+1]
	}
	if n == 2 {
		return
	}
	// Stage size=4: twiddles are 1 and −j (forward) or +j (inverse).
	for start := 0; start < n; start += 4 {
		x0, x1, x2, x3 := a[start], a[start+1], a[start+2], a[start+3]
		var t3 complex128
		if inverse {
			t3 = complex(-imag(x3), real(x3)) // +j·x3
		} else {
			t3 = complex(imag(x3), -real(x3)) // −j·x3
		}
		a[start] = x0 + x2
		a[start+2] = x0 - x2
		a[start+1] = x1 + t3
		a[start+3] = x1 - t3
	}
	tw := p.stageTw(inverse)
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		w := tw[half-4 : size-4 : size-4]
		for start := 0; start < n; start += size {
			butterflies(w, a[start:start+half], a[start+half:start+size])
		}
	}
}

// stageTw returns the stage twiddles of one direction: the forward
// table, or its conjugate for the inverse.
func (p *Plan) stageTw(inverse bool) []complex128 {
	if inverse {
		return p.twidInv
	}
	return p.twiddle
}

// butterflies runs one radix-2 block: lo[k], hi[k] = lo[k] + w[k]·hi[k],
// lo[k] − w[k]·hi[k]. Reslicing lo and hi to len(w) lets the compiler
// drop the loop's bounds checks.
func butterflies(w, lo, hi []complex128) {
	lo, hi = lo[:len(w)], hi[:len(w)]
	for k, wk := range w {
		t := wk * hi[k]
		hi[k] = lo[k] - t
		lo[k] = lo[k] + t
	}
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func bitReversal(n int) []int {
	logN := bits.TrailingZeros(uint(n))
	rev := make([]int, n)
	for i := 1; i < n; i++ {
		rev[i] = rev[i>>1]>>1 | (i&1)<<(logN-1)
	}
	return rev
}

// stageTwiddles lays out the twiddles of radix-2 stages 8, 16, …, n
// back to back: stage size s starts at s/2−4 and holds e^{-j2πk/s},
// k = 0..s/2−1. Each value is taken from the length-n/2 table at
// stride n/s, so the stages multiply by exactly the values a strided
// walk over that table would read.
func stageTwiddles(n int) []complex128 {
	full := make([]complex128, n/2)
	for k := range full {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		full[k] = complex(c, s)
	}
	tw := make([]complex128, 0, max(n-4, 0))
	for size := 8; size <= n; size <<= 1 {
		for k := 0; k < size/2; k++ {
			tw = append(tw, full[k*(n/size)])
		}
	}
	return tw
}

// getScratch borrows a length-N buffer from the plan's pool.
func (p *Plan) getScratch() *[]complex128 {
	return p.scratch.Get().(*[]complex128)
}

func (p *Plan) putScratch(s *[]complex128) { p.scratch.Put(s) }
