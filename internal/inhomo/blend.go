// Package inhomo implements the paper's contribution (§3): generation of
// two-dimensional random rough surfaces whose statistical parameters
// vary from place to place. Both algorithms reduce to the same scheme —
// at every output sample n, the effective convolution kernel is a convex
// mix of the M homogeneous component kernels,
//
//	w̃_n = Σ_m g_n(m)·w̃(m),   Σ_m g_n(m) = 1      (paper eqn 46)
//
// — and differ only in how the mixing weights g_n(m) are assigned:
//
//   - the plate-oriented method (§3.1, eqns 37–39) derives them from
//     region membership with linear ramps across transition bands;
//   - the point-oriented method (§3.2, eqns 40–45) derives them from
//     distances to representative points, blending across perpendicular
//     bisectors.
//
// Because g_n does not depend on the kernel tap index, eqn (46) is
// algebraically identical to blending M homogeneous surfaces generated
// from the *same* noise field: f(n) = Σ_m g_n(m)·(w̃(m) ⊛ X)(n). The
// generator exploits this; Reference evaluates eqn (46) literally, and
// tests pin the two to each other.
package inhomo

import (
	"fmt"
	"math"
)

// Blender assigns component mixing weights to lattice points.
type Blender interface {
	// NumComponents reports M, the number of homogeneous components.
	NumComponents() int
	// BlendWeights fills w (length M) with the mixing weights of
	// physical point (x, y). Weights are nonnegative and sum to 1.
	BlendWeights(w []float64, x, y float64)
	// SupportMask sets mask[m] (length M, caller-owned) to whether
	// component m's blend weight may be nonzero anywhere in the
	// axis-aligned rectangle [x0,x1]×[y0,y1]. The contract is a
	// conservative over-approximation — false guarantees the weight is
	// identically zero throughout the rectangle; true carries no
	// guarantee. The tiled render skips a component on every tile whose
	// mask leaves it out.
	SupportMask(mask []bool, x0, y0, x1, y1 float64)
}

// SupportRanger is an optional Region refinement used by
// PlateBlender.SupportMask: SupportRange reports conservative bounds
// lo ≤ min Support and hi ≥ max Support over the rectangle
// [x0,x1]×[y0,y1]. Regions without it contribute the vacuous bounds
// [0, 1], i.e. "may be active anywhere, covers nothing for certain".
type SupportRanger interface {
	SupportRange(x0, y0, x1, y1 float64) (lo, hi float64)
}

func supportRange(r Region, x0, y0, x1, y1 float64) (lo, hi float64) {
	if sr, ok := r.(SupportRanger); ok {
		return sr.SupportRange(x0, y0, x1, y1)
	}
	return 0, 1
}

// axisRange bounds d(x) = min(x−a, b−x) over x ∈ [lo, hi] exactly: the
// function is concave piecewise linear, so its minimum sits at an
// interval endpoint and its maximum at the midpoint of [a, b] clamped
// into the interval. Infinite a or b (half-planes) push the maximum to
// the corresponding interval endpoint.
func axisRange(lo, hi, a, b float64) (dmin, dmax float64) {
	d := func(x float64) float64 { return math.Min(x-a, b-x) }
	dmin = math.Min(d(lo), d(hi))
	at := (a + b) / 2
	switch {
	case math.IsInf(a, -1):
		at = lo // d is nonincreasing (or +Inf everywhere)
	case math.IsInf(b, 1):
		at = hi // d is nondecreasing
	case at < lo:
		at = lo
	case at > hi:
		at = hi
	}
	return dmin, d(at)
}

// rectDistRange bounds the Euclidean distance from a point (cx, cy) to
// the rectangle [x0,x1]×[y0,y1]: dmin to the clamped nearest point,
// dmax to the farthest corner.
func rectDistRange(x0, y0, x1, y1, cx, cy float64) (dmin, dmax float64) {
	nx, ny := cx, cy
	if nx < x0 {
		nx = x0
	} else if nx > x1 {
		nx = x1
	}
	if ny < y0 {
		ny = y0
	} else if ny > y1 {
		ny = y1
	}
	fx, fy := x0, y0
	if cx-x0 < x1-cx {
		fx = x1
	}
	if cy-y0 < y1-cy {
		fy = y1
	}
	return math.Hypot(cx-nx, cy-ny), math.Hypot(cx-fx, cy-fy)
}

// rampRange maps exact bounds on the signed distance through the
// monotone ramp.
func rampRange(dlo, dhi, t float64) (lo, hi float64) {
	return ramp(dlo, t), ramp(dhi, t)
}

// Region is a plate-oriented membership function: Support is 1 in the
// region core, falls linearly to 0 across a transition band, and is 0
// outside. At the nominal boundary the support is exactly 1/2, so two
// abutting regions with equal band widths cross-fade symmetrically —
// the linear interpolation of paper eqns (38)–(39).
type Region interface {
	Support(x, y float64) float64
}

// ramp converts a signed distance to the region boundary (positive
// inside) into a support value with transition half-width t.
func ramp(d, t float64) float64 {
	if t <= 0 { // hard boundary
		if d >= 0 {
			return 1
		}
		return 0
	}
	s := 0.5 + d/(2*t)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// Rect is an axis-aligned rectangular region [X0,X1]×[Y0,Y1] with
// transition half-width T. Infinite extents are allowed (±Inf) so
// half-planes and quadrants are expressible.
type Rect struct {
	X0, Y0, X1, Y1 float64
	T              float64
}

// Support implements Region using the signed distance to the rectangle
// boundary.
func (r Rect) Support(x, y float64) float64 {
	dx := math.Min(x-r.X0, r.X1-x)
	dy := math.Min(y-r.Y0, r.Y1-y)
	return ramp(math.Min(dx, dy), r.T)
}

// SupportRange implements SupportRanger exactly: the signed distance
// min(dx(x), dy(y)) separates over the axes, so its extremes over a
// rectangle are the axis-wise extremes combined — min over a product
// set of a minimum of independent terms is the min of the per-axis
// minima, and likewise for the max.
func (r Rect) SupportRange(x0, y0, x1, y1 float64) (lo, hi float64) {
	dxmin, dxmax := axisRange(x0, x1, r.X0, r.X1)
	dymin, dymax := axisRange(y0, y1, r.Y0, r.Y1)
	return rampRange(math.Min(dxmin, dymin), math.Min(dxmax, dymax), r.T)
}

// Circle is a disc of radius R centered at (CX, CY) with transition
// half-width T — the Fig. 3 geometry.
type Circle struct {
	CX, CY, R float64
	T         float64
}

// Support implements Region.
func (c Circle) Support(x, y float64) float64 {
	d := c.R - math.Hypot(x-c.CX, y-c.CY)
	return ramp(d, c.T)
}

// SupportRange implements SupportRanger exactly: the center distance
// over a rectangle spans [nearest clamped point, farthest corner], and
// d = R − dist is monotone in it.
func (c Circle) SupportRange(x0, y0, x1, y1 float64) (lo, hi float64) {
	dmin, dmax := rectDistRange(x0, y0, x1, y1, c.CX, c.CY)
	return rampRange(c.R-dmax, c.R-dmin, c.T)
}

// Complement is the outside of another region: its support is
// 1 − Inner.Support, giving an exact partition of unity with the inner
// region (how Fig. 3 pairs "inside the pond" with "everything else").
type Complement struct {
	Inner Region
}

// Support implements Region.
func (c Complement) Support(x, y float64) float64 { return 1 - c.Inner.Support(x, y) }

// SupportRange implements SupportRanger by reflecting the inner
// region's bounds through 1 − s.
func (c Complement) SupportRange(x0, y0, x1, y1 float64) (lo, hi float64) {
	ilo, ihi := supportRange(c.Inner, x0, y0, x1, y1)
	return 1 - ihi, 1 - ilo
}

// PlateBlender implements the plate-oriented method: component m's
// weight at a point is region m's support, normalized over all regions.
// Where exactly two regions overlap in a band this is the paper's linear
// interpolation (eqns 37–39); where more overlap (e.g. the meeting point
// of four quadrants) it degrades gracefully to the normalized mix.
type PlateBlender struct {
	Regions []Region
}

// NewPlateBlender validates and wraps the region list; component i of
// the generator corresponds to region i.
func NewPlateBlender(regions []Region) (*PlateBlender, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("inhomo: plate blender needs at least one region")
	}
	return &PlateBlender{Regions: regions}, nil
}

// NumComponents implements Blender.
func (b *PlateBlender) NumComponents() int { return len(b.Regions) }

// BlendWeights implements Blender. If no region claims the point (a
// coverage gap), the weights fall back to uniform so the output remains
// a valid surface; callers should arrange regions to cover the window.
func (b *PlateBlender) BlendWeights(w []float64, x, y float64) {
	var sum float64
	for i, r := range b.Regions {
		s := r.Support(x, y)
		w[i] = s
		sum += s
	}
	if sum <= 0 {
		u := 1 / float64(len(w))
		for i := range w {
			w[i] = u
		}
		return
	}
	inv := 1 / sum
	for i := range w {
		w[i] *= inv
	}
}

// SupportMask implements Blender. Component m is marked active
// when region m's support bound allows a nonzero value somewhere in the
// rectangle. One extra guard mirrors BlendWeights' coverage-gap
// fallback: the pointwise weight sum is at least the sum of the
// per-region lower bounds, so only when that sum is zero could the
// uniform fallback fire somewhere in the rectangle — then every
// component must be treated as active.
func (b *PlateBlender) SupportMask(mask []bool, x0, y0, x1, y1 float64) {
	var sumLo float64
	for i, r := range b.Regions {
		lo, hi := supportRange(r, x0, y0, x1, y1)
		mask[i] = hi > 0
		sumLo += lo
	}
	if !(sumLo > 0) {
		for i := range mask {
			mask[i] = true
		}
	}
}

// Point is one representative point of the point-oriented method,
// carrying the index of the homogeneous component whose statistics hold
// around it. Several points may share a component (Fig. 4 assigns three
// ring points to each spectrum).
type Point struct {
	X, Y      float64
	Component int
}

// PointBlender implements the point-oriented method of §3.2. T is the
// transition half-width of eqn (41): a non-nearest point m participates
// at an observation point n only if the perpendicular distance τ from n
// to the bisector of the segment (nearest point, m) — eqn (42) — is at
// most T.
//
// The blend weights reconstruct eqns (43)–(45) as
//
//	g(m)  = (1 − τ(m)/T)/(M̃+1)   for the M̃ qualifying points
//	g(m*) = 1 − Σ' g(m)
//
// which sums to one, is continuous across the bisector of the two
// nearest points, keeps every weight in [0, 1], and reduces to the
// plate-oriented linear ramp for two points. (The OCR of eqns 44–45 is
// ambiguous about the denominator; see DESIGN.md §5.)
type PointBlender struct {
	Points []Point
	T      float64

	numComponents int
}

// NewPointBlender validates the configuration. T must be positive; every
// point's Component must be a valid index below numComponents.
func NewPointBlender(points []Point, t float64, numComponents int) (*PointBlender, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("inhomo: point blender needs at least one point")
	}
	if !(t > 0) {
		return nil, fmt.Errorf("inhomo: transition half-width T must be positive, got %g", t)
	}
	if numComponents < 1 {
		return nil, fmt.Errorf("inhomo: need at least one component")
	}
	for i, p := range points {
		if p.Component < 0 || p.Component >= numComponents {
			return nil, fmt.Errorf("inhomo: point %d references component %d of %d", i, p.Component, numComponents)
		}
	}
	return &PointBlender{Points: points, T: t, numComponents: numComponents}, nil
}

// NumComponents implements Blender.
func (b *PointBlender) NumComponents() int { return b.numComponents }

// BlendWeights implements Blender. It allocates nothing while at most
// 16 non-nearest points qualify at (x, y); beyond that the candidate
// list spills to the heap.
func (b *PointBlender) BlendWeights(w []float64, x, y float64) {
	for i := range w {
		w[i] = 0
	}
	// Nearest representative point m* (eqn 40).
	best := 0
	bestD2 := math.Inf(1)
	for i, p := range b.Points {
		if d2 := dist2(p, x, y); d2 < bestD2 {
			bestD2 = d2
			best = i
		}
	}
	// Perpendicular distance to each bisector (eqn 42): for points a=m*
	// and c=m, τ = (|n−c|² − |n−a|²) / (2·|c−a|).
	type cand struct {
		idx int
		tau float64
	}
	var buf [16]cand
	cands := buf[:0]
	for i := range b.Points {
		if i == best {
			continue
		}
		sep := math.Hypot(b.Points[i].X-b.Points[best].X, b.Points[i].Y-b.Points[best].Y)
		if sep == 0 {
			// Coincident representative points: always blended, τ = 0.
			cands = append(cands, cand{i, 0})
			continue
		}
		tau := (dist2(b.Points[i], x, y) - bestD2) / (2 * sep)
		if tau <= b.T { // eqn (41)
			cands = append(cands, cand{i, tau})
		}
	}
	mTilde := float64(len(cands))
	var others float64
	for _, c := range cands {
		g := (1 - c.tau/b.T) / (mTilde + 1)
		w[b.Points[c.idx].Component] += g
		others += g
	}
	w[b.Points[best].Component] += 1 - others
}

// dist2 is the squared distance from (x, y) to p.
func dist2(p Point, x, y float64) float64 {
	dx, dy := x-p.X, y-p.Y
	return dx*dx + dy*dy
}

// SupportMask implements Blender. Representative point i can
// carry weight at an observation point n only when τ(i) ≤ T, and
// because the bisector separation obeys sep ≤ |n−p_i| + |n−p*|, eqn
// (42) gives τ(i) ≥ (|n−p_i| − |n−p*|)/2 — so weight requires
// |n−p_i| ≤ |n−p*| + 2T. Over the rectangle, |n−p_i| is at least
// point i's nearest-approach distance and the nearest-point distance
// |n−p*| is at most min_j (farthest-corner distance to p_j); comparing
// those bounds can only over-report activity, never miss it.
func (b *PointBlender) SupportMask(mask []bool, x0, y0, x1, y1 float64) {
	clear(mask)
	reach := math.Inf(1)
	for _, p := range b.Points {
		_, dmax := rectDistRange(x0, y0, x1, y1, p.X, p.Y)
		reach = math.Min(reach, dmax)
	}
	for _, p := range b.Points {
		dmin, _ := rectDistRange(x0, y0, x1, y1, p.X, p.Y)
		if dmin <= reach+2*b.T {
			mask[p.Component] = true
		}
	}
}

// UniformBlender assigns all weight to a single component everywhere —
// the degenerate case that reduces inhomogeneous generation to
// homogeneous generation, used by tests and as a building block.
type UniformBlender struct {
	M, Index int
}

// NumComponents implements Blender.
func (b UniformBlender) NumComponents() int { return b.M }

// BlendWeights implements Blender.
func (b UniformBlender) BlendWeights(w []float64, x, y float64) {
	for i := range w {
		w[i] = 0
	}
	w[b.Index] = 1
}

// SupportMask implements Blender: only Index is ever active.
func (b UniformBlender) SupportMask(mask []bool, x0, y0, x1, y1 float64) {
	clear(mask)
	mask[b.Index] = true
}
