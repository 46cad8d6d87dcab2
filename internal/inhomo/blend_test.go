package inhomo

import (
	"math"
	"testing"
	"testing/quick"

	"roughsurface/internal/approx"
)

// mustPlateBlender builds a plate blender or fails the test.
func mustPlateBlender(t *testing.T, regions []Region) *PlateBlender {
	t.Helper()
	b, err := NewPlateBlender(regions)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mustPointBlender builds a point blender or fails the test.
func mustPointBlender(t *testing.T, pts []Point, T float64, ncomp int) *PointBlender {
	t.Helper()
	b, err := NewPointBlender(pts, T, ncomp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func weightsOK(w []float64) bool {
	var sum float64
	for _, v := range w {
		if v < -1e-12 || v > 1+1e-12 || math.IsNaN(v) {
			return false
		}
		sum += v
	}
	return math.Abs(sum-1) < 1e-9
}

func TestRampShape(t *testing.T) {
	if !approx.Exact(ramp(0, 10), 0.5) {
		t.Error("ramp at boundary should be 1/2")
	}
	if !approx.Exact(ramp(10, 10), 1) || !approx.Exact(ramp(15, 10), 1) {
		t.Error("ramp deep inside should be 1")
	}
	if ramp(-10, 10) != 0 || ramp(-15, 10) != 0 {
		t.Error("ramp deep outside should be 0")
	}
	if got := ramp(5, 10); !approx.Exact(got, 0.75) {
		t.Errorf("ramp(5,10) = %g want 0.75", got)
	}
	// Hard boundary.
	if !approx.Exact(ramp(0, 0), 1) || ramp(-1e-9, 0) != 0 {
		t.Error("hard boundary misbehaves")
	}
}

func TestRectSupport(t *testing.T) {
	r := Rect{X0: 0, Y0: 0, X1: 100, Y1: 50, T: 10}
	if !approx.Exact(r.Support(50, 25), 1) {
		t.Error("core support should be 1")
	}
	if !approx.Exact(r.Support(0, 25), 0.5) {
		t.Error("edge support should be 1/2")
	}
	if r.Support(-10, 25) != 0 {
		t.Error("far outside support should be 0")
	}
	if got := r.Support(50, 45); !approx.Exact(got, 0.75) { // 5 inside the y=50 edge, T=10
		t.Errorf("support %g at y=45, want 0.75", got)
	}
	if got := r.Support(50, 55); !approx.Exact(got, 0.25) {
		t.Errorf("support %g at y=55, want 0.25", got)
	}
}

func TestRectInfiniteExtents(t *testing.T) {
	// A quadrant: x ≥ 0, y ≥ 0.
	q := Rect{X0: 0, Y0: 0, X1: math.Inf(1), Y1: math.Inf(1), T: 5}
	if !approx.Exact(q.Support(1000, 1000), 1) {
		t.Error("deep quadrant support")
	}
	if !approx.Exact(q.Support(0, 1000), 0.5) {
		t.Error("quadrant edge support")
	}
	if !approx.Exact(q.Support(0, 0), 0.5) {
		t.Error("quadrant corner support")
	}
}

func TestCircleSupport(t *testing.T) {
	c := Circle{CX: 10, CY: -5, R: 100, T: 20}
	if !approx.Exact(c.Support(10, -5), 1) {
		t.Error("center support")
	}
	if !approx.Exact(c.Support(110, -5), 0.5) {
		t.Error("rim support")
	}
	if c.Support(150, -5) != 0 {
		t.Error("outside support")
	}
	if got := c.Support(100, -5); !approx.Exact(got, 0.75) {
		t.Errorf("support %g at r=90, want 0.75", got)
	}
}

func TestComplementPartition(t *testing.T) {
	c := Circle{R: 50, T: 10}
	o := Complement{Inner: c}
	for _, p := range [][2]float64{{0, 0}, {45, 0}, {50, 0}, {55, 0}, {100, 100}} {
		if s := c.Support(p[0], p[1]) + o.Support(p[0], p[1]); math.Abs(s-1) > 1e-15 {
			t.Errorf("partition violated at %v: %g", p, s)
		}
	}
}

func quadrantBlender(T float64) *PlateBlender {
	inf := math.Inf(1)
	b, err := NewPlateBlender([]Region{
		Rect{X0: 0, Y0: 0, X1: inf, Y1: inf, T: T},   // first quadrant
		Rect{X0: -inf, Y0: 0, X1: 0, Y1: inf, T: T},  // second
		Rect{X0: -inf, Y0: -inf, X1: 0, Y1: 0, T: T}, // third
		Rect{X0: 0, Y0: -inf, X1: inf, Y1: 0, T: T},  // fourth
	})
	if err != nil {
		panic(err)
	}
	return b
}

func TestPlateQuadrants(t *testing.T) {
	b := quadrantBlender(10)
	w := make([]float64, 4)

	b.BlendWeights(w, 500, 500)
	if !approx.Exact(w[0], 1) || w[1] != 0 || w[2] != 0 || w[3] != 0 {
		t.Errorf("deep Q1 weights %v", w)
	}
	// On the positive y-axis, far from the origin: Q1/Q2 split evenly.
	b.BlendWeights(w, 0, 500)
	if math.Abs(w[0]-0.5) > 1e-12 || math.Abs(w[1]-0.5) > 1e-12 || w[2] != 0 || w[3] != 0 {
		t.Errorf("Q1/Q2 seam weights %v", w)
	}
	// At the origin all four quadrants meet.
	b.BlendWeights(w, 0, 0)
	for i := range w {
		if math.Abs(w[i]-0.25) > 1e-12 {
			t.Errorf("origin weights %v", w)
		}
	}
	// Linear ramp inside the band.
	b.BlendWeights(w, 5, 500)
	if !(w[0] > 0.5 && w[1] < 0.5) || math.Abs(w[0]+w[1]-1) > 1e-12 {
		t.Errorf("band weights %v", w)
	}
}

func TestPlateFallbackUniform(t *testing.T) {
	b := mustPlateBlender(t, []Region{
		Rect{X0: 0, Y0: 0, X1: 1, Y1: 1, T: 0.1},
		Rect{X0: 2, Y0: 2, X1: 3, Y1: 3, T: 0.1},
	})
	w := make([]float64, 2)
	b.BlendWeights(w, -100, -100) // coverage gap
	if !approx.Exact(w[0], 0.5) || !approx.Exact(w[1], 0.5) {
		t.Errorf("gap fallback weights %v", w)
	}
}

func TestPlateBlenderValidates(t *testing.T) {
	if _, err := NewPlateBlender(nil); err == nil {
		t.Error("empty region list accepted")
	}
}

func TestPointBlenderValidates(t *testing.T) {
	pts := []Point{{X: 0, Y: 0, Component: 0}}
	if _, err := NewPointBlender(nil, 10, 1); err == nil {
		t.Error("no points accepted")
	}
	if _, err := NewPointBlender(pts, 0, 1); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := NewPointBlender(pts, 10, 0); err == nil {
		t.Error("zero components accepted")
	}
	if _, err := NewPointBlender([]Point{{Component: 5}}, 10, 2); err == nil {
		t.Error("out-of-range component accepted")
	}
}

func TestPointBlenderTwoPointRamp(t *testing.T) {
	// Two points on the x-axis: the blend along x must be the same
	// linear cross-fade as a plate boundary at x=0 with half-width T.
	T := 50.0
	b, err := NewPointBlender([]Point{
		{X: -200, Y: 0, Component: 0},
		{X: 200, Y: 0, Component: 1},
	}, T, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, 2)

	b.BlendWeights(w, 0, 0) // on the bisector
	if math.Abs(w[0]-0.5) > 1e-12 || math.Abs(w[1]-0.5) > 1e-12 {
		t.Errorf("bisector weights %v", w)
	}
	b.BlendWeights(w, 25, 0) // halfway into the band on the right side
	if math.Abs(w[1]-0.75) > 1e-12 || math.Abs(w[0]-0.25) > 1e-12 {
		t.Errorf("band weights %v, want (0.25, 0.75)", w)
	}
	b.BlendWeights(w, 60, 0) // beyond the band: pure component 1
	if w[0] != 0 || !approx.Exact(w[1], 1) {
		t.Errorf("outside-band weights %v", w)
	}
}

func TestPointBlenderContinuityAcrossBisector(t *testing.T) {
	b := mustPointBlender(t, []Point{
		{X: -100, Y: 30, Component: 0},
		{X: 100, Y: -30, Component: 1},
	}, 40, 2)
	wl := make([]float64, 2)
	wr := make([]float64, 2)
	// Perpendicular bisector passes through the origin; probe both sides.
	for _, yy := range []float64{0, 17, -23} {
		// Find the bisector x at this y: points equidistant.
		// Bisector: |p-a|² = |p-b|² ⇒ 200x·... solve numerically by bisection.
		lo, hi := -50.0, 50.0
		f := func(x float64) float64 {
			da := (x+100)*(x+100) + (yy-30)*(yy-30)
			db := (x-100)*(x-100) + (yy+30)*(yy+30)
			return da - db
		}
		for it := 0; it < 100; it++ {
			mid := (lo + hi) / 2
			if f(lo)*f(mid) <= 0 {
				hi = mid
			} else {
				lo = mid
			}
		}
		xb := (lo + hi) / 2
		b.BlendWeights(wl, xb-1e-7, yy)
		b.BlendWeights(wr, xb+1e-7, yy)
		for i := range wl {
			if math.Abs(wl[i]-wr[i]) > 1e-5 {
				t.Errorf("discontinuity at bisector y=%g: %v vs %v", yy, wl, wr)
			}
		}
	}
}

func TestPointBlenderSharedComponentsAccumulate(t *testing.T) {
	// Two coincident-component points both near the probe: their weights
	// add up in the component bin.
	b := mustPointBlender(t, []Point{
		{X: -10, Y: 0, Component: 0},
		{X: 10, Y: 0, Component: 0},
		{X: 0, Y: 1000, Component: 1},
	}, 100, 2)
	w := make([]float64, 2)
	b.BlendWeights(w, 0, 0)
	if !(w[0] > 0.9) || !weightsOK(w) {
		t.Errorf("shared-component weights %v", w)
	}
}

func TestPointBlenderCoincidentPoints(t *testing.T) {
	b := mustPointBlender(t, []Point{
		{X: 0, Y: 0, Component: 0},
		{X: 0, Y: 0, Component: 1},
	}, 10, 2)
	w := make([]float64, 2)
	b.BlendWeights(w, 3, 4)
	if !weightsOK(w) {
		t.Errorf("coincident-point weights invalid: %v", w)
	}
	if math.Abs(w[0]-w[1]) > 1e-12 {
		t.Errorf("coincident points should split evenly, got %v", w)
	}
}

// TestPointBlenderAllocationFree pins that the per-sample point blend
// allocates nothing, both when no other point qualifies (narrow T) and
// when every point does (T wider than the configuration).
func TestPointBlenderAllocationFree(t *testing.T) {
	pts := []Point{
		{X: 0, Y: 0, Component: 0},
		{X: 130, Y: 40, Component: 1},
		{X: -90, Y: 110, Component: 2},
		{X: 60, Y: -150, Component: 1},
		{X: -40, Y: -60, Component: 0},
	}
	for _, T := range []float64{1, 1000} {
		b := mustPointBlender(t, pts, T, 3)
		w := make([]float64, 3)
		allocs := testing.AllocsPerRun(10, func() {
			for y := -160.0; y <= 160; y += 16 {
				for x := -160.0; x <= 160; x += 16 {
					b.BlendWeights(w, x, y)
				}
			}
		})
		if allocs > 0 {
			t.Errorf("T=%g: BlendWeights allocates %v objects per window, want 0", T, allocs)
		}
	}
}

func TestQuickPointWeightsPartitionOfUnity(t *testing.T) {
	f := func(seed int64, px, py float64) bool {
		// A fixed mildly irregular 5-point configuration; probe anywhere.
		b, err := NewPointBlender([]Point{
			{X: 0, Y: 0, Component: 0},
			{X: 130, Y: 40, Component: 1},
			{X: -90, Y: 110, Component: 2},
			{X: 60, Y: -150, Component: 1},
			{X: -40, Y: -60, Component: 0},
		}, 35, 3)
		if err != nil {
			return false
		}
		if math.IsNaN(px) || math.IsInf(px, 0) || math.IsNaN(py) || math.IsInf(py, 0) {
			return true
		}
		w := make([]float64, 3)
		b.BlendWeights(w, math.Mod(px, 1e6), math.Mod(py, 1e6))
		return weightsOK(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickPlateWeightsPartitionOfUnity(t *testing.T) {
	b := quadrantBlender(25)
	f := func(px, py float64) bool {
		if math.IsNaN(px) || math.IsInf(px, 0) || math.IsNaN(py) || math.IsInf(py, 0) {
			return true
		}
		w := make([]float64, 4)
		b.BlendWeights(w, math.Mod(px, 1e6), math.Mod(py, 1e6))
		return weightsOK(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUniformBlender(t *testing.T) {
	b := UniformBlender{M: 3, Index: 1}
	w := make([]float64, 3)
	b.BlendWeights(w, 123, -456)
	if w[0] != 0 || !approx.Exact(w[1], 1) || w[2] != 0 {
		t.Errorf("uniform blender weights %v", w)
	}
}
