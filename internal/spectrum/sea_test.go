package spectrum

import (
	"math"
	"sync"
	"testing"

	"roughsurface/internal/approx"
	"roughsurface/internal/fft"
)

// The sea spectrum's first Autocorrelation call tabulates a Hankel
// transform; share one instance across tests.
var (
	seaOnce sync.Once
	sea5    *Sea
)

func testSea(t *testing.T) *Sea {
	t.Helper()
	seaOnce.Do(func() { sea5 = MustSea(5, 9.81) })
	return sea5
}

func TestSeaValidation(t *testing.T) {
	if _, err := NewSea(0, 9.81); err == nil {
		t.Error("U=0 accepted")
	}
	if _, err := NewSea(5, -1); err == nil {
		t.Error("negative gravity accepted")
	}
}

func TestSeaAnalyticVariance(t *testing.T) {
	s := testSea(t)
	// h = U²/g·sqrt(α/4β): U=5, g=9.81 → 0.1333 m.
	want := 25.0 / 9.81 * math.Sqrt(pmAlpha/(4*pmBeta))
	if math.Abs(s.SigmaH()-want) > 1e-12 {
		t.Errorf("h = %g want %g", s.SigmaH(), want)
	}
	// ρ(0) from the numerical Hankel transform must agree with h².
	h2 := s.SigmaH() * s.SigmaH()
	if got := s.Autocorrelation(0, 0); math.Abs(got-h2)/h2 > 0.002 {
		t.Errorf("ρ(0) = %g want %g", got, h2)
	}
}

func TestSeaDensityIntegratesToVariance(t *testing.T) {
	s := testSea(t)
	// Polar Riemann sum of W over the disc k <= 50·k_p.
	kp := 9.81 / 25.0
	kMax := 50 * kp
	nR, nTheta := 4000, 1 // isotropic: one angle suffices with 2πk factor
	_ = nTheta
	var sum float64
	dk := kMax / float64(nR)
	for i := 0; i < nR; i++ {
		k := (float64(i) + 0.5) * dk
		sum += 2 * math.Pi * k * s.Density(k, 0) * dk
	}
	h2 := s.SigmaH() * s.SigmaH()
	if math.Abs(sum-h2)/h2 > 0.002 {
		t.Errorf("∫W = %g want %g", sum, h2)
	}
}

func TestSeaIsotropy(t *testing.T) {
	s := testSea(t)
	k := 9.81 / 25.0 * 2 // 2·k_p
	w0 := s.Density(k, 0)
	for _, ang := range []float64{0.3, 1.1, 2.7} {
		if got := s.Density(k*math.Cos(ang), k*math.Sin(ang)); math.Abs(got-w0)/w0 > 1e-9 {
			t.Errorf("anisotropic density at angle %g", ang)
		}
	}
	r := 10.0
	r0 := s.Autocorrelation(r, 0)
	if got := s.Autocorrelation(0, r); math.Abs(got-r0) > 1e-12*(1+math.Abs(r0)) {
		t.Error("anisotropic autocorrelation")
	}
}

func TestSeaAutocorrelationOscillates(t *testing.T) {
	// A peaked spectrum yields a swell-like oscillatory ρ: there must be
	// a negative lobe within a few peak wavelengths.
	s := testSea(t)
	lambda := s.PeakWavelength()
	foundNegative := false
	for r := 0.0; r < 4*lambda; r += lambda / 50 {
		if s.Autocorrelation(r, 0) < 0 {
			foundNegative = true
			break
		}
	}
	if !foundNegative {
		t.Error("sea autocorrelation has no negative lobe — not swell-like")
	}
}

func TestSeaCorrelationLengthScale(t *testing.T) {
	s := testSea(t)
	clx, cly := s.CorrelationLengths()
	if !approx.Exact(clx, cly) {
		t.Error("isotropic spectrum reported anisotropic cl")
	}
	lambda := s.PeakWavelength() // 16.0 m at U=5
	// The 1/e crossing of a PM sea sits at a modest fraction of the
	// dominant wavelength.
	if clx < lambda/50 || clx > lambda {
		t.Errorf("cl = %g implausible for λ_p = %g", clx, lambda)
	}
}

// TestSeaWeightDFTMatchesAutocorrelation extends experiment E5 to the
// sea spectrum: the discrete weight array's transform must reproduce the
// numerically obtained ρ.
func TestSeaWeightDFTMatchesAutocorrelation(t *testing.T) {
	s := testSea(t)
	// Resolution: dominant wavelength ~16 m → dx = 0.5 m resolves the
	// spectral peak and most of the tail. Domain 128 m.
	const n = 256
	const dx = 0.5
	w := Weights(s, n, n, n*dx, n*dx)
	sum := SumWeights(w)
	h2 := s.SigmaH() * s.SigmaH()
	if math.Abs(sum-h2)/h2 > 0.05 {
		t.Errorf("Σw = %g want %g", sum, h2)
	}
	work := make([]complex128, n*n)
	for i, v := range w.Data {
		work[i] = complex(v, 0)
	}
	fft.MustPlan2D(n, n).InverseUnscaled(work)
	want := AutocorrelationGrid(s, n, n, dx, dx)
	var rmse float64
	for i := range work {
		d := real(work[i]) - want.Data[i]
		rmse += d * d
	}
	rmse = math.Sqrt(rmse/float64(n*n)) / h2
	// Error sources: Nyquist tail (~0.3%), periodic wraparound of the
	// oscillatory swell tail, and the table interpolation.
	if rmse > 0.08 {
		t.Errorf("sea DFT(w) vs ρ relative RMSE %g", rmse)
	}
}

// TestSeaCorrelationLengthMatchesTable: construction scans ρ only up to
// its first 1/e crossing, and the crossing it reports equals, bit for
// bit, the one found on the full table Autocorrelation builds.
func TestSeaCorrelationLengthMatchesTable(t *testing.T) {
	for _, s := range []*Sea{testSea(t), MustSea(20, 9.81)} {
		s.Autocorrelation(0, 0)
		target := s.rho[0] / math.E
		want := float64(len(s.rho)-1) * s.dr
		for i := 1; i < len(s.rho); i++ {
			if s.rho[i] <= target {
				frac := 0.0
				if !approx.Exact(s.rho[i-1], s.rho[i]) {
					frac = (s.rho[i-1] - target) / (s.rho[i-1] - s.rho[i])
				}
				want = (float64(i-1) + frac) * s.dr
				break
			}
		}
		if got, _ := s.CorrelationLengths(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("U=%g: cl = %v, the table's crossing is %v", s.WindSpeed(), got, want)
		}
	}
}
