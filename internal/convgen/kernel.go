// Package convgen implements the convolution method of paper §2.4:
// a homogeneous random rough surface is an FIR filtering of white
// Gaussian noise,
//
//	f[n] = Σ_k w̃[k]·X[n+k−c]            (paper eqn 36)
//
// where the weighting kernel w̃ is the centered transform of the
// amplitude array (paper eqns 34–35) and X is a unit white Gaussian
// field. Unlike the direct DFT method, the kernel is computed once and
// any window of an unbounded surface can then be generated — tile by
// tile, strip by strip — and the kernel can be truncated when the
// correlation length is short (both advantages claimed in §2.4 and
// exercised by experiments E7/E8).
package convgen

import (
	"fmt"
	"math"

	"roughsurface/internal/approx"
	"roughsurface/internal/fft"
	"roughsurface/internal/spectrum"
)

// Kernel is a centered FIR weighting array w̃. Taps is row-major
// Nx-fast; (CX, CY) is the index of the zero-lag tap. The sum of squared
// taps approximates h², so filtering unit white noise yields the target
// height variance.
type Kernel struct {
	Nx, Ny int
	CX, CY int
	Dx, Dy float64
	Taps   []float64
}

// FromSpectrum builds the kernel for spectrum s on an nx×ny design grid
// with sample spacings dx×dy, following eqns (34)–(35):
//
//	w̃ = shift(DFT(v))/√(nx·ny),   v = sqrt(w)
//
// where shift is the centering permutation (fft-shift). The design grid
// must span several correlation lengths for the kernel to capture the
// full autocorrelation; Design picks a size automatically.
func FromSpectrum(s spectrum.Spectrum, nx, ny int, dx, dy float64) (*Kernel, error) {
	return fromSpectrum(s, nx, ny, dx, dy, false)
}

func fromSpectrum(s spectrum.Spectrum, nx, ny int, dx, dy float64, exact bool) (*Kernel, error) {
	if nx < 2 || ny < 2 {
		return nil, fmt.Errorf("convgen: kernel design grid must be at least 2x2, got %dx%d", nx, ny)
	}
	if !(dx > 0) || !(dy > 0) {
		return nil, fmt.Errorf("convgen: sample spacings must be positive, got (%g, %g)", dx, dy)
	}
	w := spectrum.Weights(s, nx, ny, float64(nx)*dx, float64(ny)*dy)
	if exact {
		spectrum.NormalizeVariance(w, s.SigmaH())
	}
	v := spectrum.Amplitude(w)

	work := make([]complex128, nx*ny)
	for i, x := range v.Data {
		work[i] = complex(x, 0)
	}
	plan, err := fft.NewPlan2D(nx, ny)
	if err != nil {
		return nil, err
	}
	plan.Forward(work) // v is real-symmetric: DFT(v) is real

	flat := make([]float64, nx*ny)
	scale := 1 / math.Sqrt(float64(nx*ny))
	maxImag := 0.0
	for i, z := range work {
		flat[i] = real(z) * scale
		if im := math.Abs(imag(z)); im > maxImag {
			maxImag = im
		}
	}
	if maxImag > 1e-6*(1+s.SigmaH()) {
		return nil, fmt.Errorf("convgen: kernel transform not real (residue %g); weight array asymmetric", maxImag)
	}

	k := &Kernel{Nx: nx, Ny: ny, CX: nx / 2, CY: ny / 2, Dx: dx, Dy: dy,
		Taps: make([]float64, nx*ny)}
	fft.ShiftReal2D(k.Taps, flat, nx, ny)
	return k, nil
}

// Design builds a kernel with an automatically chosen design grid: the
// next power of two covering spanCL correlation lengths per axis
// (spanCL <= 0 selects the default of 8), at least 16 samples. The
// kernel is then truncated to retain all but eps of its tap energy
// (eps <= 0 selects 1e-4; pass NoTruncation to keep the full grid).
func Design(s spectrum.Spectrum, dx, dy, spanCL, eps float64) (*Kernel, error) {
	return design(s, dx, dy, spanCL, eps, false)
}

// DesignExact is Design with the weight array rescaled so the kernel
// energy (and hence the generated height variance) equals h² exactly,
// compensating the spectral tail lost beyond Nyquist (see
// spectrum.NormalizeVariance).
func DesignExact(s spectrum.Spectrum, dx, dy, spanCL, eps float64) (*Kernel, error) {
	return design(s, dx, dy, spanCL, eps, true)
}

func design(s spectrum.Spectrum, dx, dy, spanCL, eps float64, exact bool) (*Kernel, error) {
	if spanCL <= 0 {
		spanCL = 8
	}
	clx, cly := s.CorrelationLengths()
	nx := nextPow2(int(math.Ceil(spanCL * clx / dx)))
	ny := nextPow2(int(math.Ceil(spanCL * cly / dy)))
	if nx < 16 {
		nx = 16
	}
	if ny < 16 {
		ny = 16
	}
	k, err := fromSpectrum(s, nx, ny, dx, dy, exact)
	if err != nil {
		return nil, err
	}
	if approx.Exact(eps, NoTruncation) {
		return k, nil
	}
	if eps <= 0 {
		eps = 1e-4
	}
	return k.Truncate(eps), nil
}

// NoTruncation disables Truncate in Design.
const NoTruncation = -1.0

// MustDesign is Design that panics on error.
func MustDesign(s spectrum.Spectrum, dx, dy, spanCL, eps float64) *Kernel {
	k, err := Design(s, dx, dy, spanCL, eps)
	if err != nil {
		panic(err)
	}
	return k
}

// Energy returns Σ taps², the height variance the kernel produces on
// unit white noise (≈ h²).
func (k *Kernel) Energy() float64 {
	var e float64
	for _, t := range k.Taps {
		e += t * t
	}
	return e
}

// Truncate returns the smallest centered window of k retaining at least
// (1−eps) of the tap energy. This is the paper's "reduce the size of the
// weighting array to save computation time when the correlation length
// is small". The original kernel is unchanged.
func (k *Kernel) Truncate(eps float64) *Kernel {
	if !(eps > 0) || eps >= 1 {
		panic(fmt.Sprintf("convgen: truncation eps %g out of (0,1)", eps))
	}
	total := k.Energy()
	if total == 0 {
		return k.clone()
	}
	// Accumulate energy by Chebyshev-distance rings around the center,
	// so the scan over radii is a single O(N²) pass.
	maxR := 0
	for _, c := range []int{k.CX, k.Nx - 1 - k.CX, k.CY, k.Ny - 1 - k.CY} {
		if c > maxR {
			maxR = c
		}
	}
	ring := make([]float64, maxR+1)
	for iy := 0; iy < k.Ny; iy++ {
		dy := iy - k.CY
		if dy < 0 {
			dy = -dy
		}
		row := k.Taps[iy*k.Nx : (iy+1)*k.Nx]
		for ix, tap := range row {
			dx := ix - k.CX
			if dx < 0 {
				dx = -dx
			}
			d := dx
			if dy > d {
				d = dy
			}
			ring[d] += tap * tap
		}
	}
	var acc float64
	for r := 0; r <= maxR; r++ {
		acc += ring[r]
		if acc >= (1-eps)*total {
			return k.crop(r)
		}
	}
	return k.clone()
}

// TruncateRect returns the smallest centered *rectangle* of k retaining
// at least (1−eps) of the tap energy, grown greedily: at each step the
// axis whose next ring of taps carries more energy per added tap is
// extended. For anisotropic kernels (clx ≠ cly) this beats the square
// window of Truncate by roughly the aspect ratio in tap count.
func (k *Kernel) TruncateRect(eps float64) *Kernel {
	if !(eps > 0) || eps >= 1 {
		panic(fmt.Sprintf("convgen: truncation eps %g out of (0,1)", eps))
	}
	total := k.Energy()
	if total == 0 {
		return k.clone()
	}
	rx, ry := 0, 0
	acc := k.At(k.CX, k.CY) * k.At(k.CX, k.CY)

	// colRing(r) sums taps² over the two columns at |dx| = r within the
	// current |dy| <= ry band; rowRing mirrors it.
	colRing := func(r, yr int) (e float64, n int) {
		for _, x := range []int{k.CX - r, k.CX + r} {
			if x < 0 || x >= k.Nx {
				continue
			}
			y0, y1 := clip(k.CY-yr, k.Ny), clip(k.CY+yr+1, k.Ny)
			for y := y0; y < y1; y++ {
				t := k.At(x, y)
				e += t * t
				n++
			}
		}
		return e, n
	}
	rowRing := func(r, xr int) (e float64, n int) {
		for _, y := range []int{k.CY - r, k.CY + r} {
			if y < 0 || y >= k.Ny {
				continue
			}
			x0, x1 := clip(k.CX-xr, k.Nx), clip(k.CX+xr+1, k.Nx)
			for x := x0; x < x1; x++ {
				t := k.At(x, y)
				e += t * t
				n++
			}
		}
		return e, n
	}

	for acc < (1-eps)*total {
		ce, cn := colRing(rx+1, ry)
		re, rn := rowRing(ry+1, rx)
		// The corner taps at (rx+1, ry+1) belong to whichever ring is
		// added second; both candidates here exclude them, which keeps
		// the greedy comparison fair.
		growX := false
		switch {
		case cn == 0 && rn == 0:
			// Kernel exhausted (numerically possible only with eps≈0).
			return k.clone()
		case cn == 0:
			growX = false
		case rn == 0:
			growX = true
		default:
			growX = ce/float64(cn) >= re/float64(rn)
		}
		if growX {
			rx++
			e, _ := colRing(rx, ry)
			acc += e
		} else {
			ry++
			e, _ := rowRing(ry, rx)
			acc += e
		}
	}
	x0, x1 := clip(k.CX-rx, k.Nx), clip(k.CX+rx+1, k.Nx)
	y0, y1 := clip(k.CY-ry, k.Ny), clip(k.CY+ry+1, k.Ny)
	nx, ny := x1-x0, y1-y0
	out := &Kernel{Nx: nx, Ny: ny, CX: k.CX - x0, CY: k.CY - y0, Dx: k.Dx, Dy: k.Dy,
		Taps: make([]float64, nx*ny)}
	for iy := 0; iy < ny; iy++ {
		copy(out.Taps[iy*nx:(iy+1)*nx], k.Taps[(y0+iy)*k.Nx+x0:(y0+iy)*k.Nx+x1])
	}
	return out
}

func (k *Kernel) crop(r int) *Kernel {
	x0, x1 := clip(k.CX-r, k.Nx), clip(k.CX+r+1, k.Nx)
	y0, y1 := clip(k.CY-r, k.Ny), clip(k.CY+r+1, k.Ny)
	nx, ny := x1-x0, y1-y0
	out := &Kernel{Nx: nx, Ny: ny, CX: k.CX - x0, CY: k.CY - y0, Dx: k.Dx, Dy: k.Dy,
		Taps: make([]float64, nx*ny)}
	for iy := 0; iy < ny; iy++ {
		copy(out.Taps[iy*nx:(iy+1)*nx], k.Taps[(y0+iy)*k.Nx+x0:(y0+iy)*k.Nx+x1])
	}
	return out
}

func (k *Kernel) clone() *Kernel {
	c := *k
	c.Taps = append([]float64(nil), k.Taps...)
	return &c
}

// At returns the tap at offset (ax, ay) from the kernel origin corner.
func (k *Kernel) At(ax, ay int) float64 { return k.Taps[ay*k.Nx+ax] }

func clip(v, n int) int {
	if v < 0 {
		return 0
	}
	if v > n {
		return n
	}
	return v
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
