package convgen

import (
	"testing"

	"roughsurface/internal/approx"
	"roughsurface/internal/spectrum"
)

// TestGenerateAtIntoMatchesGenerateAt pins the destination-buffer API
// to the allocating one: the same window rendered at an arbitrary
// stride inside a larger raster must be sample-identical, and samples
// outside the written rectangle must be untouched.
func TestGenerateAtIntoMatchesGenerateAt(t *testing.T) {
	k := MustDesign(spectrum.MustGaussian(1, 4, 4), 1, 1, 6, 1e-3)
	for _, engine := range []Engine{EngineDirect, EngineFFT} {
		gen := NewGenerator(k, 11)
		gen.Engine = engine
		const nx, ny = 21, 17
		want := gen.GenerateAt(-9, 4, nx, ny)

		const stride = 33
		dst := make([]float64, stride*ny+5)
		sentinel := -123.25
		for i := range dst {
			dst[i] = sentinel
		}
		gen.GenerateAtInto(dst, stride, -9, 4, nx, ny, 0)
		for j := 0; j < ny; j++ {
			for i := 0; i < stride; i++ {
				got := dst[j*stride+i]
				if i < nx {
					if !approx.Exact(got, want.At(i, j)) {
						t.Fatalf("engine %v: sample (%d,%d) = %g, want %g", engine, i, j, got, want.At(i, j))
					}
				} else if j < ny-1 && !approx.Exact(got, sentinel) {
					t.Fatalf("engine %v: padding at (%d,%d) overwritten: %g", engine, i, j, got)
				}
			}
		}
		for _, i := range []int{stride*(ny-1) + nx, len(dst) - 1} {
			if !approx.Exact(dst[i], sentinel) {
				t.Fatalf("engine %v: sample beyond window overwritten at %d", engine, i)
			}
		}
	}
}

// TestGenerateAtIntoWorkerParam: the per-call worker bound must not
// change output, and passing it must not touch the shared Workers
// field.
func TestGenerateAtIntoWorkerParam(t *testing.T) {
	k := MustDesign(spectrum.MustGaussian(1, 4, 4), 1, 1, 6, 1e-3)
	gen := NewGenerator(k, 5)
	const nx, ny = 40, 40
	a := make([]float64, nx*ny)
	b := make([]float64, nx*ny)
	gen.GenerateAtInto(a, nx, 3, -7, nx, ny, 1)
	gen.GenerateAtInto(b, nx, 3, -7, nx, ny, 8)
	for i := range a {
		if !approx.Exact(a[i], b[i]) {
			t.Fatalf("worker count changed sample %d: %g vs %g", i, a[i], b[i])
		}
	}
	if gen.Workers != 0 {
		t.Errorf("GenerateAtInto mutated Workers to %d", gen.Workers)
	}
}

func TestGenerateAtIntoPanics(t *testing.T) {
	k := MustDesign(spectrum.MustGaussian(1, 4, 4), 1, 1, 6, 1e-3)
	gen := NewGenerator(k, 1)
	cases := []struct {
		name string
		fn   func()
	}{
		{"stride below width", func() { gen.GenerateAtInto(make([]float64, 100), 4, 0, 0, 5, 5, 0) }},
		{"destination too short", func() { gen.GenerateAtInto(make([]float64, 24), 5, 0, 0, 5, 5, 0) }},
		{"empty window", func() { gen.GenerateAtInto(make([]float64, 100), 5, 0, 0, 0, 5, 0) }},
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
