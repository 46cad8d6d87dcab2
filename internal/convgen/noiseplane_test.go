package convgen

import (
	"math"
	"testing"

	"roughsurface/internal/approx"
	"roughsurface/internal/rng"
	"roughsurface/internal/spectrum"
)

// fillPlane materializes the shared noise plane for a window the way
// the inhomo tile engine does: FillRow per plane row.
func fillPlane(seed uint64, pi0, pj0 int64, pnx, pny int) []float64 {
	plane := make([]float64, pnx*pny)
	field := rng.NewField(seed)
	for j := 0; j < pny; j++ {
		field.FillRow(plane[j*pnx:(j+1)*pnx], pi0, pj0+int64(j))
	}
	return plane
}

func TestNoiseWindow(t *testing.T) {
	k := MustDesign(spectrum.MustGaussian(1, 3, 5), 1, 1, 4, 1e-3)
	ni0, nj0, wnx, wny := k.NoiseWindow(10, -20, 7, 9)
	if ni0 != 10-int64(k.CX) || nj0 != -20-int64(k.CY) {
		t.Fatalf("NoiseWindow origin (%d,%d), want (%d,%d)", ni0, nj0, 10-int64(k.CX), -20-int64(k.CY))
	}
	if wnx != 7+k.Nx-1 || wny != 9+k.Ny-1 {
		t.Fatalf("NoiseWindow size %dx%d, want %dx%d", wnx, wny, 7+k.Nx-1, 9+k.Ny-1)
	}
}

// TestConvolveNoiseIntoBitIdentical pins the shared-plane contract for
// the direct engine at both precisions: rendering from a caller-owned
// float64 plane that holds FillRow output produces the same bytes as
// the self-contained direct engine — same taps, same noise values, same
// summation order. The float64 render reads the plane in place; the
// float32 render narrows its noise window from it, which must equal
// FillRow32. The plane is deliberately larger than the window's own
// noise rectangle (slack on every side) to exercise the offset
// arithmetic.
func TestConvolveNoiseIntoBitIdentical(t *testing.T) {
	k := MustDesign(spectrum.MustGaussian(2, 4, 3), 1, 1, 4, 1e-3)
	const seed = 99
	const nx, ny = 25, 18
	const i0, j0 = -7, 12
	gen := NewGenerator(k, seed)
	if gen.EngineFor(nx, ny) != EngineDirect {
		t.Fatal("want the direct engine under EngineAuto")
	}

	// Plane with 3 columns / 2 rows of slack beyond the needed window.
	ni0, nj0, wnx, wny := k.NoiseWindow(i0, j0, nx, ny)
	pi0, pj0 := ni0-3, nj0-2
	pnx, pny := wnx+5, wny+4
	plane := fillPlane(seed, pi0, pj0, pnx, pny)

	want := gen.GenerateAt(i0, j0, nx, ny)
	got := make([]float64, nx*ny)
	gen.ConvolveNoiseInto(got, nx, plane, pnx, pi0, pj0, i0, j0, nx, ny, 1)
	for i, v := range got {
		if !approx.Exact(v, want.Data[i]) {
			t.Fatalf("f64 sample %d = %x, self-contained %x", i, v, want.Data[i])
		}
	}

	want32 := gen.GenerateAt32(i0, j0, nx, ny)
	got32 := make([]float32, nx*ny)
	gen.ConvolveNoiseInto32(got32, nx, plane, pnx, pi0, pj0, i0, j0, nx, ny, 1)
	for i, v := range got32 {
		if math.Float32bits(v) != math.Float32bits(want32.Data[i]) {
			t.Fatalf("f32 sample %d = %x, self-contained %x", i, v, want32.Data[i])
		}
	}
}

// TestConvolveNoiseIntoFFTBitIdentical: a window on the FFT engine
// reads its noise rows from the plane into the padded workspace, and
// renders the self-contained FFT engine's bytes at both precisions, on
// one worker and on several. The engine is forced so the test stays
// small; inhomo's Figure 3 pin covers EngineAuto's FFT choice.
func TestConvolveNoiseIntoFFTBitIdentical(t *testing.T) {
	k := MustDesign(spectrum.MustGaussian(1, 12, 12), 1, 1, 4, 1e-3)
	const seed = 5
	const nx, ny = 70, 41
	const i0, j0 = 13, -60
	gen := NewGenerator(k, seed)
	gen.Engine = EngineFFT
	ni0, nj0, wnx, wny := k.NoiseWindow(i0, j0, nx, ny)
	pi0, pj0 := ni0-2, nj0-1
	pnx, pny := wnx+3, wny+2
	plane := fillPlane(seed, pi0, pj0, pnx, pny)

	want := gen.GenerateAt(i0, j0, nx, ny)
	want32 := gen.GenerateAt32(i0, j0, nx, ny)
	for _, workers := range []int{1, 3} {
		got := make([]float64, nx*ny)
		gen.ConvolveNoiseInto(got, nx, plane, pnx, pi0, pj0, i0, j0, nx, ny, workers)
		for i, v := range got {
			if !approx.Exact(v, want.Data[i]) {
				t.Fatalf("workers=%d f64 sample %d = %x, self-contained %x", workers, i, v, want.Data[i])
			}
		}
		got32 := make([]float32, nx*ny)
		gen.ConvolveNoiseInto32(got32, nx, plane, pnx, pi0, pj0, i0, j0, nx, ny, workers)
		for i, v := range got32 {
			if math.Float32bits(v) != math.Float32bits(want32.Data[i]) {
				t.Fatalf("workers=%d f32 sample %d = %x, self-contained %x", workers, i, v, want32.Data[i])
			}
		}
	}
}

func TestConvolveNoiseIntoPanics(t *testing.T) {
	k := MustDesign(spectrum.MustGaussian(1, 3, 3), 1, 1, 4, 1e-3)
	gen := NewGenerator(k, 1)
	ni0, nj0, wnx, wny := k.NoiseWindow(0, 0, 8, 8)
	plane := fillPlane(1, ni0, nj0, wnx, wny)
	cases := []struct {
		name string
		fn   func()
	}{
		{"empty window", func() {
			gen.ConvolveNoiseInto(make([]float64, 64), 8, plane, wnx, ni0, nj0, 0, 0, 0, 8, 1)
		}},
		{"stride below width", func() {
			gen.ConvolveNoiseInto(make([]float64, 64), 7, plane, wnx, ni0, nj0, 0, 0, 8, 8, 1)
		}},
		{"destination too short", func() {
			gen.ConvolveNoiseInto(make([]float64, 63), 8, plane, wnx, ni0, nj0, 0, 0, 8, 8, 1)
		}},
		{"ragged plane", func() {
			gen.ConvolveNoiseInto(make([]float64, 64), 8, plane[:len(plane)-1], wnx, ni0, nj0, 0, 0, 8, 8, 1)
		}},
		{"plane misses window", func() {
			gen.ConvolveNoiseInto(make([]float64, 64), 8, plane, wnx, ni0, nj0, -1, 0, 8, 8, 1)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			c.fn()
		})
	}
}
