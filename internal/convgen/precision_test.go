package convgen

import (
	"math"
	"testing"

	"roughsurface/internal/approx"
	"roughsurface/internal/spectrum"
)

// f32Tol is the per-sample agreement gate between the float32 render
// pipeline and the float64 reference engine, as a fraction of the
// target rms height σh. The expected rounding error of the f32 direct
// path is ~sqrt(taps)·eps32·sqrt(Σtaps²)·σnoise ≈ 3e-6·σh for the
// kernels below, so 1e-4·σh leaves ~30× margin while still catching
// any real defect (a dropped tap or swapped index shows up at O(σh)).
// DESIGN.md §13 derives the bound.
const f32Tol = 1e-4

// TestGenerateAt32AgreesWithF64 gates the tentpole invariant: for both
// engines the f32 render of a window must agree with the f64 reference
// within f32Tol·σh per sample, and the two engines' f32 renders must
// agree with each other to the same tolerance.
func TestGenerateAt32AgreesWithF64(t *testing.T) {
	const sigma = 2.5
	k := MustDesign(spectrum.MustGaussian(sigma, 4, 3), 1, 1, 6, 1e-4)
	tol := f32Tol * sigma
	var prev *float32 // engine-to-engine cross-check on sample (0,0)
	for _, engine := range []Engine{EngineDirect, EngineFFT} {
		gen := NewGenerator(k, 17)
		gen.Engine = engine
		const nx, ny = 37, 29
		want := gen.GenerateAt(-13, 7, nx, ny)
		got := gen.GenerateAt32(-13, 7, nx, ny)
		if got.Nx != nx || got.Ny != ny {
			t.Fatalf("engine %v: got %dx%d grid", engine, got.Nx, got.Ny)
		}
		if !approx.Exact(got.Dx, want.Dx) || !approx.Exact(got.X0, want.X0) {
			t.Fatalf("engine %v: metadata mismatch: dx=%g x0=%g", engine, got.Dx, got.X0)
		}
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				d := math.Abs(float64(got.At(i, j)) - want.At(i, j))
				if d > tol {
					t.Fatalf("engine %v: sample (%d,%d) f32=%g f64=%g (|Δ|=%.3g > %.3g)",
						engine, i, j, got.At(i, j), want.At(i, j), d, tol)
				}
			}
		}
		v := got.At(0, 0)
		if prev != nil && math.Abs(float64(v-*prev)) > tol {
			t.Fatalf("engines disagree at (0,0): %g vs %g", v, *prev)
		}
		prev = &v
	}
}

// TestGenerateAtInto32Strided pins the destination-buffer contract of
// the f32 path: arbitrary stride, untouched padding, and agreement
// with the allocating form.
func TestGenerateAtInto32Strided(t *testing.T) {
	k := MustDesign(spectrum.MustGaussian(1, 4, 4), 1, 1, 6, 1e-3)
	for _, engine := range []Engine{EngineDirect, EngineFFT} {
		gen := NewGenerator(k, 11)
		gen.Engine = engine
		const nx, ny = 21, 17
		want := gen.GenerateAt32(-9, 4, nx, ny)

		const stride = 33
		dst := make([]float32, stride*ny+5)
		const sentinel = -123.25
		for i := range dst {
			dst[i] = sentinel
		}
		gen.GenerateAtInto32(dst, stride, -9, 4, nx, ny, 0)
		for j := 0; j < ny; j++ {
			for i := 0; i < stride; i++ {
				got := dst[j*stride+i]
				if i < nx {
					if !approx.Exact(float64(got), float64(want.At(i, j))) {
						t.Fatalf("engine %v: sample (%d,%d) = %g, want %g", engine, i, j, got, want.At(i, j))
					}
				} else if j < ny-1 && !approx.Exact(float64(got), sentinel) {
					t.Fatalf("engine %v: padding at (%d,%d) overwritten: %g", engine, i, j, got)
				}
			}
		}
	}
}

func TestGenerateAtInto32Panics(t *testing.T) {
	k := MustDesign(spectrum.MustGaussian(1, 4, 4), 1, 1, 6, 1e-3)
	gen := NewGenerator(k, 1)
	cases := []struct {
		name string
		fn   func()
	}{
		{"stride below width", func() { gen.GenerateAtInto32(make([]float32, 100), 4, 0, 0, 5, 5, 0) }},
		{"destination too short", func() { gen.GenerateAtInto32(make([]float32, 24), 5, 0, 0, 5, 5, 0) }},
		{"empty window", func() { gen.GenerateAtInto32(make([]float32, 100), 5, 0, 0, 0, 5, 0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			c.fn()
		})
	}
}

// FuzzConv32Agreement drives the f32/f64 agreement property over
// fuzzer-chosen seeds, window origins, and correlation lengths, for
// whichever engine the auto heuristic picks. Wired into the check.sh
// fuzz smoke.
func FuzzConv32Agreement(f *testing.F) {
	f.Add(uint64(1), int64(0), int64(0), 3.0, 2.0)
	f.Add(uint64(99), int64(-40), int64(25), 1.5, 6.0)
	f.Add(uint64(1<<40), int64(1000), int64(-1000), 5.0, 5.0)
	f.Fuzz(func(t *testing.T, seed uint64, i0, j0 int64, clx, cly float64) {
		if !(clx >= 0.5 && clx <= 8) || !(cly >= 0.5 && cly <= 8) {
			t.Skip()
		}
		const sigma = 1.0
		spec, err := spectrum.NewGaussian(sigma, clx, cly)
		if err != nil {
			t.Skip()
		}
		k, err := Design(spec, 1, 1, 5, 1e-3)
		if err != nil {
			t.Skip()
		}
		gen := NewGenerator(k, seed)
		const nx, ny = 24, 19
		want := gen.GenerateAt(i0, j0, nx, ny)
		got := gen.GenerateAt32(i0, j0, nx, ny)
		tol := f32Tol * sigma
		for i, v := range got.Data {
			if d := math.Abs(float64(v) - want.Data[i]); d > tol {
				t.Fatalf("seed=%d origin=(%d,%d) cl=(%g,%g): sample %d f32=%g f64=%g |Δ|=%.3g",
					seed, i0, j0, clx, cly, i, v, want.Data[i], d)
			}
		}
	})
}
