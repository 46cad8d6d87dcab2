package spectrum

import (
	"fmt"
	"math"
	"sync"

	"roughsurface/internal/approx"
)

// Sea is an isotropic fully-developed wind-sea spectrum of the
// Pierson–Moskowitz form — the "sea surface" environment the paper's
// introduction motivates (and its ref [2] scatters from). The
// omnidirectional wavenumber spectrum under deep-water dispersion is
//
//	S(k) = (α/2)·k^(−3)·exp(−β·(k_p/k)²),   k_p = g/U²
//
// with the classic constants α = 8.1e-3, β = 0.74, U the wind speed.
// Spread isotropically over direction, the 2D density is
// W(K) = S(|K|)/(2π|K|), and the height variance is analytic:
//
//	h² = ∫S dk = α·U⁴/(4β·g²)
//
// The autocorrelation has no closed form; it is the radial Hankel
// transform ρ(r) = ∫S(k)·J₀(kr) dk, tabulated on a dense grid of radii
// on the first Autocorrelation call and interpolated. Unlike the three
// paper families, ρ oscillates (swell structure), so the reported
// correlation length is the first 1/e crossing; construction evaluates
// ρ on the table's radii only up to that crossing, because kernel
// design reads nothing else.
type Sea struct {
	u, g float64
	h    float64
	kp   float64

	dr      float64
	clEst   float64
	rhoOnce sync.Once
	rho     []float64 // ρ at radii i·dr, i ≤ seaTab; built by table
}

// PM spectral constants.
const (
	pmAlpha = 8.1e-3
	pmBeta  = 0.74
)

// seaTab is the last index of the ρ table: it reaches 64 peak
// wavelengths in steps of 0.02/k_p.
const seaTab = 3200

// seaKMax bounds spectral integrals at 50·k_p; the k^(−3) tail beyond
// carries < 0.03% of the variance.
const seaKMax = 50.0

// NewSea builds the spectrum for wind speed u (m/s) under gravity g
// (m/s²; pass 9.81 for Earth).
func NewSea(u, g float64) (*Sea, error) {
	if !(u > 0) || math.IsInf(u, 0) {
		return nil, fmt.Errorf("spectrum: wind speed must be positive and finite, got %g", u)
	}
	if !(g > 0) || math.IsInf(g, 0) {
		return nil, fmt.Errorf("spectrum: gravity must be positive and finite, got %g", g)
	}
	s := &Sea{u: u, g: g}
	s.kp = g / (u * u)
	s.h = math.Sqrt(pmAlpha/(4*pmBeta)) * u * u / g

	s.dr = 0.02 / s.kp
	// First 1/e crossing of ρ on the table's radii, with the table's
	// arithmetic: it sits near index 77 at every U.
	prev := s.hankel(0)
	target := prev / math.E
	s.clEst = float64(seaTab) * s.dr
	for i := 1; i <= seaTab; i++ {
		cur := s.hankel(float64(i) * s.dr)
		if cur <= target {
			frac := 0.0
			if !approx.Exact(prev, cur) {
				frac = (prev - target) / (prev - cur)
			}
			s.clEst = (float64(i-1) + frac) * s.dr
			break
		}
		prev = cur
	}
	return s, nil
}

// MustSea is NewSea that panics on invalid parameters.
func MustSea(u, g float64) *Sea {
	s, err := NewSea(u, g)
	if err != nil {
		panic(err)
	}
	return s
}

// radial evaluates the omnidirectional spectrum S(k).
func (s *Sea) radial(k float64) float64 {
	if k <= 0 {
		return 0
	}
	q := s.kp / k
	return pmAlpha / 2 * math.Exp(-pmBeta*q*q) / (k * k * k)
}

// hankel evaluates ρ(r) = ∫₀^∞ S(k)·J₀(kr) dk by Simpson's rule with a
// step resolving both the spectral peak and the J₀ oscillation at r.
func (s *Sea) hankel(r float64) float64 {
	kMax := seaKMax * s.kp
	panels := 4000
	if osc := int(3 * kMax * r); osc > panels {
		panels = osc
	}
	if panels%2 == 1 {
		panels++
	}
	hStep := kMax / float64(panels)
	f := func(k float64) float64 { return s.radial(k) * math.J0(k*r) }
	sum := f(0) + f(kMax)
	for i := 1; i < panels; i++ {
		w := 2.0
		if i%2 == 1 {
			w = 4
		}
		sum += w * f(float64(i)*hStep)
	}
	return sum * hStep / 3
}

// Density implements Spectrum: W(K) = S(|K|)/(2π|K|).
func (s *Sea) Density(kx, ky float64) float64 {
	k := math.Hypot(kx, ky)
	if k == 0 {
		return 0
	}
	return s.radial(k) / (2 * math.Pi * k)
}

// table returns ρ at radii i·dr, i ≤ seaTab, tabulating it on first use.
func (s *Sea) table() []float64 {
	s.rhoOnce.Do(func() {
		s.rho = make([]float64, seaTab+1)
		for i := range s.rho {
			s.rho[i] = s.hankel(float64(i) * s.dr)
		}
	})
	return s.rho
}

// Autocorrelation implements Spectrum via the radial table.
func (s *Sea) Autocorrelation(x, y float64) float64 {
	rho := s.table()
	r := math.Hypot(x, y)
	idx := r / s.dr
	i := int(idx)
	if i >= len(rho)-1 {
		return 0 // beyond 64 peak wavelengths: negligible
	}
	frac := idx - float64(i)
	return rho[i]*(1-frac) + rho[i+1]*frac
}

// SigmaH implements Spectrum with the analytic PM variance.
func (s *Sea) SigmaH() float64 { return s.h }

// CorrelationLengths implements Spectrum with the isotropic first 1/e
// crossing of ρ.
func (s *Sea) CorrelationLengths() (float64, float64) { return s.clEst, s.clEst }

// Name implements Spectrum.
func (s *Sea) Name() string { return "sea" }

// WindSpeed reports U.
func (s *Sea) WindSpeed() float64 { return s.u }

// PeakWavelength reports the dominant wavelength 2π/k_p = 2π·U²/g.
func (s *Sea) PeakWavelength() float64 { return 2 * math.Pi / s.kp }
