package inhomo

import (
	"fmt"
	"math"
)

// Sector is an annular sector region: radii in [R0, R1] and angle in
// [A0, A1] (radians, counterclockwise, A1 > A0, span at most 2π) around
// center (CX, CY), with transition half-width T. The paper's remark that
// the plate-oriented method "can easily be applied to other cases such
// as a circular region" extends to sectors — the natural shape for
// pie-slice habitats like Fig. 4's.
type Sector struct {
	CX, CY float64
	R0, R1 float64
	A0, A1 float64
	T      float64
}

// Support implements Region: the signed distance to the sector boundary
// is the minimum of the radial margins and the angular margins (the
// latter converted to arc length at the point's radius).
func (s Sector) Support(x, y float64) float64 {
	dx, dy := x-s.CX, y-s.CY
	r := math.Hypot(dx, dy)
	d := math.Min(r-s.R0, s.R1-r)

	span := s.A1 - s.A0
	if span < 2*math.Pi {
		theta := math.Atan2(dy, dx) - s.A0
		for theta < 0 {
			theta += 2 * math.Pi
		}
		for theta >= 2*math.Pi {
			theta -= 2 * math.Pi
		}
		var dAng float64
		if theta <= span {
			dAng = math.Min(theta, span-theta) * r // inside the wedge
		} else {
			dAng = -math.Min(theta-span, 2*math.Pi-theta) * r
		}
		d = math.Min(d, dAng)
	}
	return ramp(d, s.T)
}

// SupportRange implements SupportRanger conservatively: the radial
// margin alone bounds the support from above (the angular margin can
// only shrink it), and no coverage is claimed (lo = 0) because bounding
// the angular term over a rectangle is not worth the geometry.
func (s Sector) SupportRange(x0, y0, x1, y1 float64) (lo, hi float64) {
	dmin, dmax := rectDistRange(x0, y0, x1, y1, s.CX, s.CY)
	_, dhi := axisRange(dmin, dmax, s.R0, s.R1)
	return 0, ramp(dhi, s.T)
}

// Polygon is a simple (non-self-intersecting) polygon region with
// transition half-width T. Vertices are listed in order (either
// winding); the boundary closes automatically.
type Polygon struct {
	X, Y []float64
	T    float64
}

// NewPolygon validates the vertex lists.
func NewPolygon(xs, ys []float64, t float64) (Polygon, error) {
	if len(xs) != len(ys) {
		return Polygon{}, fmt.Errorf("inhomo: polygon coordinate lists differ: %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 3 {
		return Polygon{}, fmt.Errorf("inhomo: polygon needs at least 3 vertices, got %d", len(xs))
	}
	return Polygon{X: xs, Y: ys, T: t}, nil
}

// Support implements Region using the signed Euclidean distance to the
// polygon boundary: positive inside (even-odd rule), negative outside.
func (p Polygon) Support(x, y float64) float64 {
	return ramp(p.signedDistance(x, y), p.T)
}

// SupportRange implements SupportRanger through the 1-Lipschitz
// property of the Euclidean signed distance: over a rectangle with
// center c and half-diagonal ρ, d stays within [d(c)−ρ, d(c)+ρ].
func (p Polygon) SupportRange(x0, y0, x1, y1 float64) (lo, hi float64) {
	rho := math.Hypot(x1-x0, y1-y0) / 2
	d := p.signedDistance((x0+x1)/2, (y0+y1)/2)
	return rampRange(d-rho, d+rho, p.T)
}

func (p Polygon) signedDistance(x, y float64) float64 {
	n := len(p.X)
	inside := false
	minD2 := math.Inf(1)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		xi, yi := p.X[i], p.Y[i]
		xj, yj := p.X[j], p.Y[j]
		// Even-odd crossing test.
		if (yi > y) != (yj > y) {
			xCross := xi + (y-yi)/(yj-yi)*(xj-xi)
			if x < xCross {
				inside = !inside
			}
		}
		// Distance to segment (xj,yj)-(xi,yi).
		ex, ey := xi-xj, yi-yj
		px, py := x-xj, y-yj
		t := 0.0
		if l2 := ex*ex + ey*ey; l2 > 0 {
			t = (px*ex + py*ey) / l2
			if t < 0 {
				t = 0
			} else if t > 1 {
				t = 1
			}
		}
		ddx := px - t*ex
		ddy := py - t*ey
		if d2 := ddx*ddx + ddy*ddy; d2 < minD2 {
			minD2 = d2
		}
	}
	d := math.Sqrt(minD2)
	if !inside {
		d = -d
	}
	return d
}
