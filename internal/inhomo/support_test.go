package inhomo

import (
	"math"
	"sync"
	"testing"

	"roughsurface/internal/convgen"
	"roughsurface/internal/spectrum"
)

// orderRect normalizes a fuzzed rectangle to x0 <= x1, y0 <= y1.
func orderRect(x0, y0, x1, y1 float64) (float64, float64, float64, float64) {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	return x0, y0, x1, y1
}

func allFinite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// clampInto pulls a fuzzed probe coordinate into [lo, hi].
func clampInto(v, lo, hi float64) float64 {
	return math.Min(math.Max(v, lo), hi)
}

// FuzzSupportMaskPlate is the conservativeness property of the
// plate-oriented mask: wherever BlendWeights assigns component m a
// nonzero weight inside a query rectangle, SupportMask over that
// rectangle must report m active. Fuzzed over random rectangles and
// circles (the paper's §3.1 geometries) plus the complement that closes
// the partition.
func FuzzSupportMaskPlate(f *testing.F) {
	f.Add(-10.0, 10.0, 2.0, 0.0, 0.0, 8.0, 3.0, -20.0, -20.0, 20.0, 20.0, 1.0, 1.0)
	f.Add(0.0, 1.0, 0.0, 5.0, -5.0, 0.5, 0.0, -1.0, -1.0, 1.0, 1.0, 0.0, 0.0)
	f.Add(-3.0, 40.0, 11.0, -7.0, 2.0, 30.0, 0.1, -50.0, -4.0, 3.0, 60.0, -2.0, 55.0)
	f.Fuzz(func(t *testing.T, rX0, rX1, rT, cX, cY, cR, cT, qx0, qy0, qx1, qy1, px, py float64) {
		if !allFinite(rX0, rX1, rT, cX, cY, cR, cT, qx0, qy0, qx1, qy1, px, py) {
			t.Skip()
		}
		rX0, _, rX1, _ = orderRect(rX0, 0, rX1, 0)
		qx0, qy0, qx1, qy1 = orderRect(qx0, qy0, qx1, qy1)
		circle := Circle{CX: cX, CY: cY, R: math.Abs(cR), T: math.Abs(cT)}
		regions := []Region{
			Rect{X0: rX0, Y0: math.Inf(-1), X1: rX1, Y1: math.Inf(1), T: math.Abs(rT)},
			circle,
			Complement{Inner: circle},
		}
		b, err := NewPlateBlender(regions)
		if err != nil {
			t.Skip()
		}
		mask := make([]bool, len(regions))
		b.SupportMask(mask, qx0, qy0, qx1, qy1)
		x := clampInto(px, qx0, qx1)
		y := clampInto(py, qy0, qy1)
		w := make([]float64, len(regions))
		b.BlendWeights(w, x, y)
		for m, v := range w {
			if v > 0 && !mask[m] {
				t.Fatalf("component %d has weight %g at (%g,%g) inside [%g,%g]x[%g,%g] but mask says inactive",
					m, v, x, y, qx0, qx1, qy0, qy1)
			}
		}
	})
}

// FuzzSupportMaskPoint is the same conservativeness property for the
// point-oriented blender, fuzzed over representative point placement,
// transition half-width, query rectangle, and probe.
func FuzzSupportMaskPoint(f *testing.F) {
	f.Add(-20.0, 0.0, 20.0, 0.0, 0.0, 30.0, 10.0, -32.0, -32.0, 32.0, 32.0, 1.0, 2.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.5, -2.0, -2.0, 2.0, 2.0, 0.0, 0.0)
	f.Add(5.0, -3.0, 4.0, 8.0, -60.0, 2.0, 25.0, 0.0, 0.0, 10.0, 90.0, 7.0, 44.0)
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1, x2, y2, T, qx0, qy0, qx1, qy1, px, py float64) {
		if !allFinite(x0, y0, x1, y1, x2, y2, T, qx0, qy0, qx1, qy1, px, py) {
			t.Skip()
		}
		if !(math.Abs(T) > 0) {
			t.Skip()
		}
		qx0, qy0, qx1, qy1 = orderRect(qx0, qy0, qx1, qy1)
		b, err := NewPointBlender([]Point{
			{X: x0, Y: y0, Component: 0},
			{X: x1, Y: y1, Component: 1},
			{X: x2, Y: y2, Component: 2},
		}, math.Abs(T), 3)
		if err != nil {
			t.Skip()
		}
		mask := make([]bool, 3)
		b.SupportMask(mask, qx0, qy0, qx1, qy1)
		x := clampInto(px, qx0, qx1)
		y := clampInto(py, qy0, qy1)
		w := make([]float64, 3)
		b.BlendWeights(w, x, y)
		for m, v := range w {
			if v > 0 && !mask[m] {
				t.Fatalf("component %d has weight %g at (%g,%g) inside [%g,%g]x[%g,%g] but mask says inactive",
					m, v, x, y, qx0, qx1, qy0, qy1)
			}
		}
	})
}

// TestSupportRangeBoundsSampled: for every shape with a SupportRange,
// dense sampling inside the query rectangle must stay within [lo, hi].
func TestSupportRangeBoundsSampled(t *testing.T) {
	shapes := map[string]Region{
		"rect":        Rect{X0: -6, Y0: -3, X1: 6, Y1: 9, T: 2},
		"rect-hard":   Rect{X0: -6, Y0: -3, X1: 6, Y1: 9, T: 0},
		"half-plane":  Rect{X0: math.Inf(-1), Y0: math.Inf(-1), X1: 1.5, Y1: math.Inf(1), T: 3},
		"circle":      Circle{CX: 1, CY: -2, R: 7, T: 1.5},
		"complement":  Complement{Inner: Circle{CX: 1, CY: -2, R: 7, T: 1.5}},
		"sector":      Sector{CX: 0, CY: 0, R0: 2, R1: 9, A0: 0.3, A1: 2.1, T: 1},
		"full-sector": Sector{CX: 0, CY: 0, R0: 0, R1: 5, A0: 0, A1: 2 * math.Pi, T: 0.5},
		"polygon": Polygon{X: []float64{-5, 5, 6, 0, -6}, Y: []float64{-4, -5, 3, 7, 2},
			T: 1.2},
	}
	queries := [][4]float64{
		{-10, -10, 10, 10},
		{-2, -2, 2, 2},
		{4, 4, 12, 12},
		{-30, 5, -12, 8}, // entirely outside most shapes
		{3, -1, 3, -1},   // degenerate point rect
	}
	for name, shape := range shapes {
		sr, ok := shape.(SupportRanger)
		if !ok {
			t.Fatalf("%s does not implement SupportRanger", name)
		}
		for _, q := range queries {
			lo, hi := sr.SupportRange(q[0], q[1], q[2], q[3])
			if lo > hi {
				t.Fatalf("%s %v: inverted bounds [%g, %g]", name, q, lo, hi)
			}
			const steps = 24
			for jy := 0; jy <= steps; jy++ {
				y := q[1] + (q[3]-q[1])*float64(jy)/steps
				for ix := 0; ix <= steps; ix++ {
					x := q[0] + (q[2]-q[0])*float64(ix)/steps
					s := shape.Support(x, y)
					if s < lo-1e-12 || s > hi+1e-12 {
						t.Fatalf("%s %v: support %g at (%g,%g) outside [%g, %g]",
							name, q, s, x, y, lo, hi)
					}
				}
			}
		}
	}
}

// recordingMasker wraps a PlateBlender and records every SupportMask
// rectangle and every BlendWeights sample point it is asked for.
type recordingMasker struct {
	*PlateBlender
	mu     sync.Mutex
	rects  [][4]float64
	points [][2]float64
}

func (r *recordingMasker) SupportMask(mask []bool, x0, y0, x1, y1 float64) {
	r.mu.Lock()
	r.rects = append(r.rects, [4]float64{x0, y0, x1, y1})
	r.mu.Unlock()
	r.PlateBlender.SupportMask(mask, x0, y0, x1, y1)
}

func (r *recordingMasker) BlendWeights(w []float64, x, y float64) {
	r.mu.Lock()
	r.points = append(r.points, [2]float64{x, y})
	r.mu.Unlock()
	r.PlateBlender.BlendWeights(w, x, y)
}

// TestTileMasksCoverBlendSamples: every sample the blend evaluates lies
// inside the rectangle its tile's mask was queried over. At dx = 0.1
// the tiles starting at lattice −16 have x0+15·dx < float64(−1)·dx, so a
// far edge built by adding the tile extent to the near edge would leave
// their last sample an ulp outside the queried rectangle.
func TestTileMasksCoverBlendSamples(t *testing.T) {
	const dx = 0.1
	if x0 := float64(-16) * dx; !(x0+15*dx < float64(-1)*dx) {
		t.Fatal("spacing no longer exposes the far-edge rounding gap")
	}
	mk := func(s spectrum.Spectrum) *convgen.Kernel {
		k, err := convgen.Design(s, dx, dx, 6, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	ks := []*convgen.Kernel{
		mk(spectrum.MustGaussian(1, 0.3, 0.3)),
		mk(spectrum.MustExponential(2, 0.4, 0.4)),
	}
	inf := math.Inf(1)
	for _, f32 := range []bool{false, true} {
		rec := &recordingMasker{PlateBlender: mustPlateBlender(t, []Region{
			Rect{X0: -inf, Y0: -inf, X1: 0, Y1: inf, T: 0.5},
			Rect{X0: 0, Y0: -inf, X1: inf, Y1: inf, T: 0.5},
		})}
		gen := MustGenerator(ks, rec, 3)
		gen.TileSize = 16
		if f32 {
			gen.GenerateAt32(-32, -32, 64, 64)
		} else {
			gen.GenerateAt(-32, -32, 64, 64)
		}
		if len(rec.points) == 0 {
			t.Fatal("no tile ran the blend")
		}
		for _, p := range rec.points {
			inside := false
			for _, r := range rec.rects {
				if p[0] >= r[0] && p[0] <= r[2] && p[1] >= r[1] && p[1] <= r[3] {
					inside = true
					break
				}
			}
			if !inside {
				t.Fatalf("f32=%v: blend sample (%v, %v) lies outside every queried rectangle", f32, p[0], p[1])
			}
		}
	}
}

// TestSupportMaskOverwritesBuffer: every blender writes each entry of
// the caller's mask, so a reused buffer holding a previous tile's mask
// reads exactly as a fresh one.
func TestSupportMaskOverwritesBuffer(t *testing.T) {
	plates, err := NewPlateBlender([]Region{
		Rect{X0: math.Inf(-1), Y0: math.Inf(-1), X1: 0, Y1: math.Inf(1), T: 2},
		Rect{X0: 0, Y0: math.Inf(-1), X1: math.Inf(1), Y1: math.Inf(1), T: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	points, err := NewPointBlender([]Point{{X: -20, Y: 0, Component: 0}, {X: 20, Y: 0, Component: 1}}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]Blender{"plate": plates, "point": points, "uniform": UniformBlender{M: 2, Index: 1}} {
		for _, x0 := range []float64{-40, 30} {
			fresh := make([]bool, 2)
			b.SupportMask(fresh, x0, -5, x0+5, 5)
			for _, prior := range []bool{false, true} {
				dirty := []bool{prior, prior}
				b.SupportMask(dirty, x0, -5, x0+5, 5)
				if dirty[0] != fresh[0] || dirty[1] != fresh[1] {
					t.Errorf("%s at x0=%g: reused buffer (prior %v) reads %v, fresh %v", name, x0, prior, dirty, fresh)
				}
			}
		}
	}
}
