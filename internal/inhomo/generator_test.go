package inhomo

import (
	"math"
	"testing"

	"roughsurface/internal/approx"
	"roughsurface/internal/convgen"
	"roughsurface/internal/spectrum"
	"roughsurface/internal/stats"
)

func smallKernels(t *testing.T) []*convgen.Kernel {
	t.Helper()
	a, err := convgen.Design(spectrum.MustGaussian(1.0, 4, 4), 1, 1, 6, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := convgen.Design(spectrum.MustExponential(2.0, 5, 5), 1, 1, 6, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	return []*convgen.Kernel{a, b}
}

func TestNewGeneratorValidates(t *testing.T) {
	ks := smallKernels(t)
	if _, err := NewGenerator(nil, UniformBlender{M: 1}, 1); err == nil {
		t.Error("no kernels accepted")
	}
	if _, err := NewGenerator(ks, nil, 1); err == nil {
		t.Error("nil blender accepted")
	}
	if _, err := NewGenerator(ks, UniformBlender{M: 3}, 1); err == nil {
		t.Error("component count mismatch accepted")
	}
	// Mismatched spacing.
	odd, err := convgen.Design(spectrum.MustGaussian(1, 4, 4), 2, 2, 6, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGenerator([]*convgen.Kernel{ks[0], odd}, UniformBlender{M: 2}, 1); err == nil {
		t.Error("mismatched spacing accepted")
	}
}

// TestReferenceEqualsFastPath pins the blended-fields render to the
// literal eqn (46) evaluation: exchanging the sums is exact algebra, so
// the two must agree to round-off.
func TestReferenceEqualsFastPath(t *testing.T) {
	ks := smallKernels(t)
	blender, err := NewPlateBlender([]Region{
		Rect{X0: math.Inf(-1), Y0: math.Inf(-1), X1: 0, Y1: math.Inf(1), T: 4},
		Rect{X0: 0, Y0: math.Inf(-1), X1: math.Inf(1), Y1: math.Inf(1), T: 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	fast := MustGenerator(ks, blender, 42)
	a := fast.GenerateAt(-12, -10, 24, 20)
	b := reference(fast, -12, -10, 24, 20)
	if d := a.MaxAbsDiff(b); d > 1e-9 {
		t.Errorf("fast path deviates from literal eqn (46) by %g", d)
	}
}

func TestReferenceEqualsFastPathPointOriented(t *testing.T) {
	ks := smallKernels(t)
	blender, err := NewPointBlender([]Point{
		{X: -15, Y: 0, Component: 0},
		{X: 15, Y: 5, Component: 1},
		{X: 0, Y: -20, Component: 0},
	}, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	fast := MustGenerator(ks, blender, 7)
	a := fast.GenerateAt(-10, -10, 20, 20)
	b := reference(fast, -10, -10, 20, 20)
	if d := a.MaxAbsDiff(b); d > 1e-9 {
		t.Errorf("point-oriented fast path deviates by %g", d)
	}
}

// TestUniformBlendReducesToHomogeneous: with all weight on one
// component, the inhomogeneous generator must reproduce the plain
// convolution generator exactly (same seed, same kernel).
func TestUniformBlendReducesToHomogeneous(t *testing.T) {
	ks := smallKernels(t)
	gen := MustGenerator(ks, UniformBlender{M: 2, Index: 1}, 13)
	inSurf := gen.GenerateAt(-16, -16, 32, 32)

	conv := convgen.NewGenerator(ks[1], 13)
	homSurf := conv.GenerateAt(-16, -16, 32, 32)
	if d := inSurf.MaxAbsDiff(homSurf); d > 1e-9 {
		t.Errorf("degenerate blend differs from homogeneous generation by %g", d)
	}
}

func TestWorkerInvariance(t *testing.T) {
	ks := smallKernels(t)
	blender := mustPlateBlender(t, []Region{
		Rect{X0: math.Inf(-1), Y0: math.Inf(-1), X1: 0, Y1: math.Inf(1), T: 4},
		Rect{X0: 0, Y0: math.Inf(-1), X1: math.Inf(1), Y1: math.Inf(1), T: 4},
	})
	g1 := MustGenerator(ks, blender, 3)
	g1.Workers = 1
	g8 := MustGenerator(ks, blender, 3)
	g8.Workers = 8
	a := g1.GenerateAt(0, 0, 48, 40)
	b := g8.GenerateAt(0, 0, 48, 40)
	if d := a.MaxAbsDiff(b); d > 0 {
		t.Errorf("worker count changed output by %g", d)
	}
}

// TestPerRegionStatistics: two half-planes with different heights — deep
// in each core the measured std must match that region's h.
func TestPerRegionStatistics(t *testing.T) {
	left := convgen.MustDesign(spectrum.MustGaussian(1.0, 6, 6), 1, 1, 8, 1e-4)
	right := convgen.MustDesign(spectrum.MustGaussian(3.0, 6, 6), 1, 1, 8, 1e-4)
	blender := mustPlateBlender(t, []Region{
		Rect{X0: math.Inf(-1), Y0: math.Inf(-1), X1: 0, Y1: math.Inf(1), T: 10},
		Rect{X0: 0, Y0: math.Inf(-1), X1: math.Inf(1), Y1: math.Inf(1), T: 10},
	})
	gen := MustGenerator([]*convgen.Kernel{left, right}, blender, 2025)
	surf := gen.GenerateCentered(256, 256)

	// Cores: columns well away from the x=0 seam.
	coreL := surf.Sub(0, 0, 96, 256)
	coreR := surf.Sub(160, 0, 96, 256)
	stdL := stats.Describe(coreL.Data).Std
	stdR := stats.Describe(coreR.Data).Std
	if math.Abs(stdL-1.0) > 0.2 {
		t.Errorf("left core std %g, want 1.0", stdL)
	}
	if math.Abs(stdR-3.0) > 0.6 {
		t.Errorf("right core std %g, want 3.0", stdR)
	}
	if !(stdR > 2*stdL) {
		t.Errorf("height contrast not reproduced: %g vs %g", stdL, stdR)
	}
}

// TestTransitionIsGradual: along the seam the per-column std must climb
// monotonically (within noise) from the low region to the high region —
// no jump discontinuity, which is the whole point of the algorithm.
func TestTransitionIsGradual(t *testing.T) {
	lowK := convgen.MustDesign(spectrum.MustGaussian(0.5, 6, 6), 1, 1, 8, 1e-4)
	highK := convgen.MustDesign(spectrum.MustGaussian(2.5, 6, 6), 1, 1, 8, 1e-4)
	T := 30.0
	blender := mustPlateBlender(t, []Region{
		Rect{X0: math.Inf(-1), Y0: math.Inf(-1), X1: 0, Y1: math.Inf(1), T: T},
		Rect{X0: 0, Y0: math.Inf(-1), X1: math.Inf(1), Y1: math.Inf(1), T: T},
	})
	gen := MustGenerator([]*convgen.Kernel{lowK, highK}, blender, 88)
	surf := gen.GenerateCentered(384, 384)

	colStd := func(ix int) float64 {
		col := make([]float64, surf.Ny)
		for iy := 0; iy < surf.Ny; iy++ {
			col[iy] = surf.At(ix, iy)
		}
		return stats.Describe(col).Std
	}
	// Sample the variance profile across the transition.
	xs := []int{64, 128, 176, 192, 208, 256, 320} // lattice columns; seam at 192
	stds := make([]float64, len(xs))
	for i, ix := range xs {
		stds[i] = colStd(ix)
	}
	if stds[0] > 0.8 || stds[len(stds)-1] < 1.8 {
		t.Fatalf("profile endpoints implausible: %v", stds)
	}
	// Midpoint of the transition should sit between the extremes.
	mid := stds[3]
	if !(mid > stds[0] && mid < stds[len(stds)-1]) {
		t.Errorf("transition midpoint %g not between %g and %g", mid, stds[0], stds[len(stds)-1])
	}
}

func TestWeightMapPartition(t *testing.T) {
	ks := smallKernels(t)
	blender := mustPlateBlender(t, []Region{
		Circle{R: 10, T: 4},
		Complement{Inner: Circle{R: 10, T: 4}},
	})
	gen := MustGenerator(ks, blender, 1)
	w0 := gen.WeightMap(0, -16, -16, 32, 32)
	w1 := gen.WeightMap(1, -16, -16, 32, 32)
	for i := range w0.Data {
		if s := w0.Data[i] + w1.Data[i]; math.Abs(s-1) > 1e-12 {
			t.Fatalf("weight maps do not partition unity at %d: %g", i, s)
		}
	}
	if !approx.Exact(w0.At(16, 16), 1) { // lattice origin = circle center
		t.Error("circle center should be pure component 0")
	}
}

func TestWeightMapPanicsOnBadIndex(t *testing.T) {
	ks := smallKernels(t)
	gen := MustGenerator(ks, UniformBlender{M: 2}, 1)
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	gen.WeightMap(5, 0, 0, 4, 4)
}

// TestSeamlessTiling: like the homogeneous case, two overlapping windows
// of an inhomogeneous surface agree on the overlap (the blend weights
// are functions of absolute position, the noise of absolute lattice
// index).
func TestSeamlessTiling(t *testing.T) {
	ks := smallKernels(t)
	blender := mustPointBlender(t, []Point{
		{X: -20, Y: 0, Component: 0},
		{X: 20, Y: 0, Component: 1},
	}, 10, 2)
	gen := MustGenerator(ks, blender, 9)
	a := gen.GenerateAt(-32, -32, 64, 64)
	b := gen.GenerateAt(0, -32, 64, 64)
	for j := 0; j < 64; j++ {
		for i := 0; i < 32; i++ {
			va := a.At(32+i, j)
			vb := b.At(i, j)
			if math.Abs(va-vb) > 1e-9 {
				t.Fatalf("tile mismatch at (%d,%d): %g vs %g", i, j, va, vb)
			}
		}
	}
}
