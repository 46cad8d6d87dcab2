package spectrum

import (
	"fmt"
	"math"

	"roughsurface/internal/grid"
)

// Weights builds the discrete weighting array w of paper eqn (15) for an
// nx×ny DFT grid spanning physical lengths lx×ly:
//
//	w[my][mx] = (4π²/(lx·ly)) · W(K_m̃x, K_m̃y),   K_m = 2π·m̃/L
//
// with the index folding of eqn (16): m̃ = m for m below the Nyquist bin
// and m̃ = N − m above it, so w is real, nonnegative and symmetric under
// m → N − m. The array satisfies Σ_m w[m] ≈ h² (the Riemann sum of
// eqn 1); the deficit is the spectral tail beyond the Nyquist frequency.
//
// The returned grid has Dx = 2π/lx and Dy = 2π/ly (the spectral bin
// widths) and no physical origin.
func Weights(s Spectrum, nx, ny int, lx, ly float64) *grid.Grid {
	if nx < 1 || ny < 1 {
		panic(fmt.Sprintf("spectrum: invalid weight grid %dx%d", nx, ny))
	}
	if !(lx > 0) || !(ly > 0) {
		panic(fmt.Sprintf("spectrum: invalid physical lengths %gx%g", lx, ly))
	}
	w := grid.New(nx, ny)
	w.Dx = 2 * math.Pi / lx
	w.Dy = 2 * math.Pi / ly
	scale := 4 * math.Pi * math.Pi / (lx * ly)
	for my := 0; my < ny; my++ {
		ky := w.Dy * float64(fold(my, ny))
		for mx := 0; mx < nx; mx++ {
			kx := w.Dx * float64(fold(mx, nx))
			w.Set(mx, my, scale*s.Density(kx, ky))
		}
	}
	return w
}

// fold maps DFT bin m of an N-point transform to its non-negative
// frequency index per paper eqn (16).
func fold(m, n int) int {
	if 2*m <= n {
		return m
	}
	return n - m
}

// Amplitude returns v = sqrt(w) element-wise (paper eqn 17).
func Amplitude(w *grid.Grid) *grid.Grid {
	v := w.Clone()
	for i, x := range v.Data {
		v.Data[i] = math.Sqrt(x)
	}
	return v
}

// SumWeights returns Σ_m w[m], the discrete estimate of h².
func SumWeights(w *grid.Grid) float64 {
	var s float64
	for _, x := range w.Data {
		s += x
	}
	return s
}

// NormalizeVariance rescales a weight array in place so Σ_m w[m] equals
// exactly h². The raw array undershoots h² by the spectral tail beyond
// the Nyquist frequency (up to several percent for the heavy-tailed
// exponential family at short correlation lengths); normalizing trades
// that bias for an equally small autocorrelation-shape distortion and
// makes the generated height variance exact by construction. This is an
// extension beyond the paper, which uses the raw discretization.
func NormalizeVariance(w *grid.Grid, h float64) {
	sum := SumWeights(w)
	if sum <= 0 {
		return
	}
	scale := h * h / sum
	for i := range w.Data {
		w.Data[i] *= scale
	}
}

// AutocorrelationGrid evaluates the analytic ρ(r) on the DFT lag grid of
// an nx×ny surface with sample spacings dx×dy: entry (mx, my) holds
// ρ(fold(mx)·dx, fold(my)·dy), matching the lag ordering produced by
// stats.AutocovarianceFFT and by the N·IDFT of the weight array — the
// comparison the paper uses as its accuracy check (§2.2). Bins m and
// n−m fold to the same lag index, so ρ is evaluated on the quadrant
// mx ≤ nx/2, my ≤ ny/2 and each mirror bin copies the same evaluation:
// a quarter of the calls, the same values.
func AutocorrelationGrid(s Spectrum, nx, ny int, dx, dy float64) *grid.Grid {
	g := grid.New(nx, ny)
	g.Dx, g.Dy = dx, dy
	hx, hy := nx/2, ny/2 // fold(m, n) = m exactly for m ≤ n/2
	for my := 0; my <= hy; my++ {
		y := dy * float64(my)
		row := g.Row(my)
		for mx := 0; mx <= hx; mx++ {
			row[mx] = s.Autocorrelation(dx*float64(mx), y)
		}
		for mx := hx + 1; mx < nx; mx++ {
			row[mx] = row[nx-mx]
		}
	}
	for my := hy + 1; my < ny; my++ {
		copy(g.Row(my), g.Row(ny-my))
	}
	return g
}
