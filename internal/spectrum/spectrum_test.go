package spectrum

import (
	"math"
	"strings"
	"testing"

	"roughsurface/internal/approx"
	"roughsurface/internal/fft"
	"roughsurface/internal/grid"
)

func TestBesselKHalfIntegerClosedForms(t *testing.T) {
	// K_{1/2}(x) = sqrt(π/2x)·e^{−x}
	// K_{3/2}(x) = sqrt(π/2x)·e^{−x}·(1 + 1/x)
	// K_{5/2}(x) = sqrt(π/2x)·e^{−x}·(1 + 3/x + 3/x²)
	for _, x := range []float64{0.05, 0.3, 1, 2.5, 10, 50} {
		pre := math.Sqrt(math.Pi/(2*x)) * math.Exp(-x)
		cases := []struct {
			nu   float64
			want float64
		}{
			{0.5, pre},
			{1.5, pre * (1 + 1/x)},
			{2.5, pre * (1 + 3/x + 3/(x*x))},
		}
		for _, c := range cases {
			got := BesselK(c.nu, x)
			if rel := math.Abs(got-c.want) / c.want; rel > 1e-8 {
				t.Errorf("K_%g(%g) = %.12g want %.12g (rel %g)", c.nu, x, got, c.want, rel)
			}
		}
	}
}

func TestBesselKRecurrence(t *testing.T) {
	// K_{ν+1}(x) = K_{ν−1}(x) + (2ν/x)·K_ν(x)
	for _, nu := range []float64{1, 1.7, 3} {
		for _, x := range []float64{0.2, 1, 4, 20} {
			lhs := BesselK(nu+1, x)
			rhs := BesselK(nu-1, x) + 2*nu/x*BesselK(nu, x)
			if rel := math.Abs(lhs-rhs) / lhs; rel > 1e-7 {
				t.Errorf("recurrence broken at ν=%g x=%g: %g vs %g", nu, x, lhs, rhs)
			}
		}
	}
}

func TestBesselKEdgeBehavior(t *testing.T) {
	if !math.IsInf(BesselK(1, 0), 1) {
		t.Error("K_ν(0) should be +Inf")
	}
	if BesselK(1, 800) != 0 {
		t.Error("K_ν(800) should underflow to 0")
	}
	if v := BesselK(0, 1); v <= 0 || v >= 1 {
		t.Errorf("K_0(1) = %g out of plausible range", v)
	}
}

func TestConstructorsValidate(t *testing.T) {
	if _, err := NewGaussian(0, 1, 1); err == nil {
		t.Error("h=0 accepted")
	}
	if _, err := NewGaussian(1, -1, 1); err == nil {
		t.Error("clx<0 accepted")
	}
	if _, err := NewExponential(1, 1, 0); err == nil {
		t.Error("cly=0 accepted")
	}
	if _, err := NewPowerLaw(1, 1, 1, 1); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := NewPowerLaw(1, 1, 1, 0.5); err == nil {
		t.Error("N<1 accepted")
	}
	if _, err := NewPowerLaw(1, 1, 1, 2); err != nil {
		t.Errorf("valid power law rejected: %v", err)
	}
}

func allSpectra() []Spectrum {
	return []Spectrum{
		MustGaussian(1.3, 8, 8),
		MustGaussian(0.7, 5, 12), // anisotropic
		MustPowerLaw(1.1, 8, 8, 2),
		MustPowerLaw(0.9, 10, 6, 3),
		MustExponential(1.2, 8, 8),
	}
}

func TestAutocorrelationAtOriginIsVariance(t *testing.T) {
	for _, s := range allSpectra() {
		h := s.SigmaH()
		if got := s.Autocorrelation(0, 0); math.Abs(got-h*h) > 1e-9*h*h {
			t.Errorf("%s: ρ(0,0)=%g want %g", s.Name(), got, h*h)
		}
	}
}

func TestAutocorrelationDecaysMonotonically(t *testing.T) {
	for _, s := range allSpectra() {
		prev := s.Autocorrelation(0, 0)
		for _, r := range []float64{1, 2, 5, 10, 20, 50, 100} {
			cur := s.Autocorrelation(r, 0)
			if cur > prev+1e-12 {
				t.Errorf("%s: ρ not decaying at x=%g (%g > %g)", s.Name(), r, cur, prev)
			}
			prev = cur
		}
	}
}

func TestAutocorrelationEvenSymmetry(t *testing.T) {
	for _, s := range allSpectra() {
		for _, p := range [][2]float64{{3, 4}, {-3, 4}, {3, -4}, {-3, -4}} {
			if math.Abs(s.Autocorrelation(p[0], p[1])-s.Autocorrelation(3, 4)) > 1e-12 {
				t.Errorf("%s: ρ not even at %v", s.Name(), p)
			}
		}
	}
}

func TestGaussianAutocorrelationOneOverE(t *testing.T) {
	s := MustGaussian(2, 10, 25)
	if got := s.Autocorrelation(10, 0); math.Abs(got-4/math.E) > 1e-12 {
		t.Errorf("ρ(clx,0)=%g want h²/e=%g", got, 4/math.E)
	}
	if got := s.Autocorrelation(0, 25); math.Abs(got-4/math.E) > 1e-12 {
		t.Errorf("ρ(0,cly)=%g want h²/e", got)
	}
}

func TestExponentialAutocorrelationOneOverE(t *testing.T) {
	s := MustExponential(3, 7, 7)
	if got := s.Autocorrelation(7, 0); math.Abs(got-9/math.E) > 1e-12 {
		t.Errorf("ρ(cl,0)=%g want h²/e=%g", got, 9/math.E)
	}
}

func TestDensityIntegratesToVariance(t *testing.T) {
	// Riemann sum of W over a dense wide spectral grid must give h².
	for _, s := range allSpectra() {
		clx, cly := s.CorrelationLengths()
		kmx := 60 / clx // far into the tail for every family
		kmy := 60 / cly
		n := 1200
		dkx := 2 * kmx / float64(n)
		dky := 2 * kmy / float64(n)
		var sum float64
		for iy := 0; iy < n; iy++ {
			ky := -kmy + (float64(iy)+0.5)*dky
			for ix := 0; ix < n; ix++ {
				kx := -kmx + (float64(ix)+0.5)*dkx
				sum += s.Density(kx, ky)
			}
		}
		sum *= dkx * dky
		h2 := s.SigmaH() * s.SigmaH()
		tol := 0.03 * h2 // heavy-tailed families converge slowly
		if strings.HasPrefix(s.Name(), "gaussian") {
			tol = 1e-6 * h2
		}
		if math.Abs(sum-h2) > tol {
			t.Errorf("%s: ∫W = %g want %g", s.Name(), sum, h2)
		}
	}
}

func TestWeightsSymmetryAndPositivity(t *testing.T) {
	w := Weights(MustGaussian(1, 6, 9), 32, 24, 32, 24)
	for my := 0; my < 24; my++ {
		for mx := 0; mx < 32; mx++ {
			v := w.At(mx, my)
			if v < 0 {
				t.Fatalf("negative weight at (%d,%d)", mx, my)
			}
			if mirror := w.At((32-mx)%32, (24-my)%24); math.Abs(v-mirror) > 1e-15 {
				t.Fatalf("weight asymmetry at (%d,%d)", mx, my)
			}
		}
	}
}

func TestSumWeightsApproximatesVariance(t *testing.T) {
	cases := []struct {
		s   Spectrum
		tol float64 // relative, dominated by the spectral tail beyond Nyquist
	}{
		{MustGaussian(1.5, 8, 8), 1e-9},
		{MustPowerLaw(1.5, 8, 8, 2), 0.02},
		{MustExponential(1.5, 8, 8), 0.06},
	}
	for _, c := range cases {
		w := Weights(c.s, 256, 256, 256, 256)
		h2 := c.s.SigmaH() * c.s.SigmaH()
		sum := SumWeights(w)
		if math.Abs(sum-h2)/h2 > c.tol {
			t.Errorf("%s: Σw=%g want %g (rel %g > %g)", c.s.Name(), sum, h2, math.Abs(sum-h2)/h2, c.tol)
		}
	}
}

func TestAmplitudeSquaresBack(t *testing.T) {
	w := Weights(MustExponential(1, 10, 10), 16, 16, 16, 16)
	v := Amplitude(w)
	for i := range v.Data {
		if math.Abs(v.Data[i]*v.Data[i]-w.Data[i]) > 1e-15 {
			t.Fatalf("v² != w at %d", i)
		}
	}
}

// TestWeightDFTMatchesAutocorrelation is experiment E5: the paper's own
// accuracy check (§2.2) that the DFT of the weighting array reproduces
// the analytic autocorrelation, for all three spectral families.
func TestWeightDFTMatchesAutocorrelation(t *testing.T) {
	cases := []struct {
		s   Spectrum
		tol float64 // relative RMSE over the full lag grid
	}{
		{MustGaussian(1.3, 8, 8), 1e-8},
		{MustGaussian(0.8, 6, 14), 1e-8},
		{MustPowerLaw(1.1, 8, 8, 2), 0.02},
		{MustPowerLaw(1.0, 8, 8, 3), 0.02},
		{MustExponential(1.2, 8, 8), 0.06},
	}
	const n = 256
	p := fft.MustPlan2D(n, n)
	for _, c := range cases {
		w := Weights(c.s, n, n, n, n) // dx = dy = 1
		work := make([]complex128, n*n)
		for i, v := range w.Data {
			work[i] = complex(v, 0)
		}
		p.InverseUnscaled(work) // Σ_m w·e^{+j...} = NxNy·IDFT(w)
		got := grid.New(n, n)
		maxImag := 0.0
		for i, v := range work {
			got.Data[i] = real(v)
			if im := math.Abs(imag(v)); im > maxImag {
				maxImag = im
			}
		}
		if maxImag > 1e-9 {
			t.Errorf("%s: DFT of symmetric weights has imaginary residue %g", c.s.Name(), maxImag)
		}
		want := AutocorrelationGrid(c.s, n, n, 1, 1)
		h2 := c.s.SigmaH() * c.s.SigmaH()
		rmse := 0.0
		for i := range got.Data {
			d := got.Data[i] - want.Data[i]
			rmse += d * d
		}
		rmse = math.Sqrt(rmse/float64(n*n)) / h2
		if rmse > c.tol {
			t.Errorf("%s: DFT(w) vs ρ relative RMSE %g > %g", c.s.Name(), rmse, c.tol)
		}
	}
}

func TestAutocorrelationGridLagOrdering(t *testing.T) {
	s := MustGaussian(1, 5, 5)
	g := AutocorrelationGrid(s, 16, 16, 2, 2)
	if !approx.Exact(g.At(0, 0), s.Autocorrelation(0, 0)) {
		t.Error("lag (0,0) misplaced")
	}
	if !approx.Exact(g.At(3, 0), s.Autocorrelation(6, 0)) {
		t.Error("positive lag misplaced")
	}
	if !approx.Exact(g.At(13, 0), s.Autocorrelation(6, 0)) { // bin 13 folds to lag 3 → x=6
		t.Error("wrapped negative lag misplaced")
	}
}

// TestAutocorrelationGridMirrorsFullEvaluation: the quadrant-and-mirror
// grid is bit-identical to evaluating ρ at every bin's folded lag, for
// every family at odd and even sizes.
func TestAutocorrelationGridMirrorsFullEvaluation(t *testing.T) {
	for _, s := range []Spectrum{
		MustGaussian(1.5, 3, 5),
		MustPowerLaw(1, 4, 3, 2.5),
		MustExponential(2, 5, 2),
		testSea(t),
	} {
		for _, n := range [][2]int{{1, 1}, {2, 3}, {8, 9}, {16, 16}, {17, 15}} {
			nx, ny := n[0], n[1]
			const dx, dy = 0.7, 1.3
			g := AutocorrelationGrid(s, nx, ny, dx, dy)
			for my := 0; my < ny; my++ {
				for mx := 0; mx < nx; mx++ {
					want := s.Autocorrelation(dx*float64(fold(mx, nx)), dy*float64(fold(my, ny)))
					if !approx.Exact(g.At(mx, my), want) {
						t.Fatalf("%s %dx%d: bin (%d,%d) = %v, full evaluation %v", s.Name(), nx, ny, mx, my, g.At(mx, my), want)
					}
				}
			}
		}
	}
}

func TestNames(t *testing.T) {
	if MustGaussian(1, 1, 1).Name() != "gaussian" {
		t.Error("gaussian name")
	}
	if MustPowerLaw(1, 1, 1, 2).Name() != "powerlaw2" {
		t.Error("powerlaw name")
	}
	if MustExponential(1, 1, 1).Name() != "exponential" {
		t.Error("exponential name")
	}
	if !approx.Exact(MustPowerLaw(1, 1, 1, 2.5).Order(), 2.5) {
		t.Error("Order")
	}
}
