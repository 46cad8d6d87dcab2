package inhomo

import (
	"math"
	"testing"
	"testing/quick"

	"roughsurface/internal/approx"
	"roughsurface/internal/convgen"
	"roughsurface/internal/spectrum"
)

func TestSectorSupportFullRing(t *testing.T) {
	// Full-circle sector degenerates to an annulus.
	s := Sector{R0: 10, R1: 20, A0: 0, A1: 2 * math.Pi, T: 2}
	if !approx.Exact(s.Support(15, 0), 1) {
		t.Error("mid-annulus support")
	}
	if !approx.Exact(s.Support(0, 15), 1) {
		t.Error("annulus must be angle-independent")
	}
	if !approx.Exact(s.Support(10, 0), 0.5) || !approx.Exact(s.Support(20, 0), 0.5) {
		t.Error("annulus rim support should be 1/2")
	}
	if s.Support(0, 0) != 0 || s.Support(30, 0) != 0 {
		t.Error("far inside/outside support should be 0")
	}
}

func TestSectorSupportWedge(t *testing.T) {
	// Quarter wedge in the first quadrant, radii 0..100.
	s := Sector{R0: 0, R1: 100, A0: 0, A1: math.Pi / 2, T: 5}
	if !approx.Exact(s.Support(30, 30), 1) { // mid-wedge, far from all edges
		t.Error("wedge core support")
	}
	// On the angular edge (positive x-axis) the arc distance is 0.
	if got := s.Support(50, 0); !approx.Exact(got, 0.5) {
		t.Errorf("angular edge support %g, want 0.5", got)
	}
	// Just outside the wedge.
	if got := s.Support(50, -20); got != 0 {
		t.Errorf("outside wedge support %g", got)
	}
	// Radial rim.
	if got := s.Support(100/math.Sqrt2, 100/math.Sqrt2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("radial rim support %g", got)
	}
}

func TestSectorAngularWraparound(t *testing.T) {
	// Sector straddling the ±π cut: angles [3π/4, 5π/4].
	s := Sector{R0: 0, R1: 100, A0: 3 * math.Pi / 4, A1: 5 * math.Pi / 4, T: 1}
	if !approx.Exact(s.Support(-50, 0), 1) { // along the negative x-axis: sector middle
		t.Error("wraparound sector core")
	}
	if s.Support(50, 0) != 0 {
		t.Error("opposite direction should be outside")
	}
}

func TestPolygonValidation(t *testing.T) {
	if _, err := NewPolygon([]float64{0, 1}, []float64{0, 1}, 1); err == nil {
		t.Error("2-vertex polygon accepted")
	}
	if _, err := NewPolygon([]float64{0, 1, 2}, []float64{0, 1}, 1); err == nil {
		t.Error("ragged coordinate lists accepted")
	}
	if _, err := NewPolygon([]float64{0, 10, 10, 0}, []float64{0, 0, 10, 10}, 1); err != nil {
		t.Errorf("valid square rejected: %v", err)
	}
}

func TestPolygonSquareMatchesRect(t *testing.T) {
	// An axis-aligned square polygon must agree with the Rect region at
	// interior points, edges, and outside (where Rect uses the same
	// edge-distance convention, i.e. away from corners).
	poly, err := NewPolygon([]float64{0, 100, 100, 0}, []float64{0, 0, 50, 50}, 10)
	if err != nil {
		t.Fatal(err)
	}
	rect := Rect{X0: 0, Y0: 0, X1: 100, Y1: 50, T: 10}
	pts := [][2]float64{{50, 25}, {0, 25}, {100, 25}, {50, 0}, {50, 50}, {5, 25}, {-5, 25}, {50, 57}}
	for _, p := range pts {
		got := poly.Support(p[0], p[1])
		want := rect.Support(p[0], p[1])
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("point %v: polygon %g, rect %g", p, got, want)
		}
	}
}

func TestPolygonConcave(t *testing.T) {
	// L-shaped polygon: (0,0)-(40,0)-(40,20)-(20,20)-(20,40)-(0,40).
	poly, err := NewPolygon(
		[]float64{0, 40, 40, 20, 20, 0},
		[]float64{0, 0, 20, 20, 40, 40}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !approx.Exact(poly.Support(10, 10), 1) {
		t.Error("inside the L's lower arm")
	}
	if !approx.Exact(poly.Support(10, 30), 1) {
		t.Error("inside the L's upper arm")
	}
	if poly.Support(30, 30) != 0 {
		t.Error("the notch is outside")
	}
}

func TestQuickSectorSupportInRange(t *testing.T) {
	s := Sector{CX: 5, CY: -3, R0: 10, R1: 60, A0: 1, A1: 4, T: 7}
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return true
		}
		v := s.Support(math.Mod(x, 1000), math.Mod(y, 1000))
		return v >= 0 && v <= 1 && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickPolygonSupportInRange(t *testing.T) {
	poly, err := NewPolygon([]float64{0, 30, 45, 10, -20}, []float64{0, 5, 40, 55, 30}, 6)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return true
		}
		v := poly.Support(math.Mod(x, 500), math.Mod(y, 500))
		return v >= 0 && v <= 1 && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestInhomoStreamerMatchesOneShot: a surface rendered as successive
// strips of rows joins seamlessly, because blend weights are functions
// of absolute position and the noise of absolute lattice index.
func TestInhomoStreamerMatchesOneShot(t *testing.T) {
	ka := convgen.MustDesign(spectrum.MustGaussian(1, 4, 4), 1, 1, 6, 1e-3)
	kb := convgen.MustDesign(spectrum.MustGaussian(2.5, 5, 5), 1, 1, 6, 1e-3)
	blender, err := NewPlateBlender([]Region{
		Sector{R0: 0, R1: 40, A0: 0, A1: 2 * math.Pi, T: 6},
		Complement{Inner: Circle{R: 40, T: 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := MustGenerator([]*convgen.Kernel{ka, kb}, blender, 77)

	whole := gen.GenerateAt(-32, -30, 64, 60)
	for strip := 0; strip < 3; strip++ {
		part := gen.GenerateAt(-32, -30+int64(strip*20), 64, 20)
		for j := 0; j < 20; j++ {
			for i := 0; i < 64; i++ {
				if math.Abs(part.At(i, j)-whole.At(i, strip*20+j)) > 1e-9 {
					t.Fatalf("strip %d sample (%d,%d) differs", strip, i, j)
				}
			}
		}
	}
}

func TestSectorBlendsWithGenerator(t *testing.T) {
	// A pie wedge of rough terrain inside a calm disc: statistics in
	// the wedge core must exceed the rest.
	rough := convgen.MustDesign(spectrum.MustGaussian(2.0, 5, 5), 1, 1, 8, 1e-4)
	calm := convgen.MustDesign(spectrum.MustGaussian(0.3, 5, 5), 1, 1, 8, 1e-4)
	blender, err := NewPlateBlender([]Region{
		Sector{R0: 0, R1: 200, A0: -math.Pi / 4, A1: math.Pi / 4, T: 8},
		Complement{Inner: Sector{R0: 0, R1: 200, A0: -math.Pi / 4, A1: math.Pi / 4, T: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := MustGenerator([]*convgen.Kernel{rough, calm}, blender, 31)
	surf := gen.GenerateCentered(160, 160)

	// Wedge core: along positive x. Outside: along negative x.
	var inSS, outSS float64
	var nIn, nOut int
	for iy := 70; iy < 90; iy++ {
		for ix := 110; ix < 150; ix++ {
			v := surf.At(ix, iy)
			inSS += v * v
			nIn++
		}
		for ix := 10; ix < 50; ix++ {
			v := surf.At(ix, iy)
			outSS += v * v
			nOut++
		}
	}
	hIn := math.Sqrt(inSS / float64(nIn))
	hOut := math.Sqrt(outSS / float64(nOut))
	if !(hIn > 3*hOut) {
		t.Errorf("wedge contrast missing: inside %.3f outside %.3f", hIn, hOut)
	}
}
