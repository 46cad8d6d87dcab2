// Package grid provides the two-dimensional sampled-field containers the
// generators produce and consume: Of for real height fields f(x, y)
// (Grid at float64, Grid32 at float32) and CGrid for complex
// spectral-domain arrays. Data is row-major (index iy*Nx+ix) with
// uniform sample spacing and an arbitrary origin so that figure
// coordinates like the paper's [-500, 500]² map naturally.
package grid

import (
	"fmt"
	"math"
)

// float is the sample precision of a real grid. It matches simd.Float;
// grid keeps its own copy so the container package stays a leaf, free
// of the SIMD layer.
type float interface {
	~float32 | ~float64
}

// Of is a uniformly sampled real field at sample precision F.
// Data[iy*Nx+ix] is the sample at physical position
// (X0 + ix·Dx, Y0 + iy·Dy). Spacing and origin stay float64 at both
// precisions: coordinates are exact lattice multiples and never
// accumulate rounding.
type Of[F float] struct {
	Nx, Ny int
	Dx, Dy float64
	X0, Y0 float64
	Data   []F
}

// Grid is the float64 reference grid the statistics, I/O and figure
// layers work in.
type Grid = Of[float64]

// Grid32 is the float32 grid of the serving hot path: tiles leave the
// daemon as f32 or 8-bit PNG, so rendering in single precision halves
// the working set without changing what a client can observe beyond
// documented rounding tolerance.
type Grid32 = Of[float32]

// NewOf allocates a zeroed nx×ny grid of precision F with unit spacing
// and origin (0, 0).
func NewOf[F float](nx, ny int) *Of[F] {
	if nx < 1 || ny < 1 {
		panic(fmt.Sprintf("grid: invalid size %dx%d", nx, ny))
	}
	return &Of[F]{Nx: nx, Ny: ny, Dx: 1, Dy: 1, Data: make([]F, nx*ny)}
}

// New allocates a zeroed nx×ny float64 grid (NewOf at float64).
func New(nx, ny int) *Grid { return NewOf[float64](nx, ny) }

// New32 allocates a zeroed nx×ny float32 grid (NewOf at float32).
func New32(nx, ny int) *Grid32 { return NewOf[float32](nx, ny) }

// NewCentered allocates an nx×ny grid with spacing (dx, dy) whose
// coordinate origin sits at the grid center, matching the paper's figure
// axes (e.g. the circle of Fig. 3 is centered at (0, 0)).
func NewCentered(nx, ny int, dx, dy float64) *Grid {
	g := New(nx, ny)
	g.Dx, g.Dy = dx, dy
	g.X0 = -dx * float64(nx/2)
	g.Y0 = -dy * float64(ny/2)
	return g
}

// Index returns the flat index of sample (ix, iy).
func (g *Of[F]) Index(ix, iy int) int { return iy*g.Nx + ix }

// At returns the sample at (ix, iy).
func (g *Of[F]) At(ix, iy int) F { return g.Data[iy*g.Nx+ix] }

// Set stores v at (ix, iy).
func (g *Of[F]) Set(ix, iy int, v F) { g.Data[iy*g.Nx+ix] = v }

// XY returns the physical coordinates of sample (ix, iy).
func (g *Of[F]) XY(ix, iy int) (x, y float64) {
	return g.X0 + float64(ix)*g.Dx, g.Y0 + float64(iy)*g.Dy
}

// Len reports the number of samples.
func (g *Of[F]) Len() int { return g.Nx * g.Ny }

// Clone returns a deep copy.
func (g *Of[F]) Clone() *Of[F] {
	c := *g
	c.Data = append([]F(nil), g.Data...)
	return &c
}

// Widen returns a float64 copy, for handing f32-rendered tiles to the
// float64 render and statistics layers (PNG colormapping, probes).
func (g *Of[F]) Widen() *Grid {
	out := &Grid{Nx: g.Nx, Ny: g.Ny, Dx: g.Dx, Dy: g.Dy, X0: g.X0, Y0: g.Y0,
		Data: make([]float64, len(g.Data))}
	for i, v := range g.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// Fill sets every sample to v.
func (g *Of[F]) Fill(v F) {
	for i := range g.Data {
		g.Data[i] = v
	}
}

// Scale multiplies every sample by s.
func (g *Of[F]) Scale(s F) {
	for i := range g.Data {
		g.Data[i] *= s
	}
}

// AddScaled adds s·o to g sample-wise. The grids must share dimensions.
func (g *Of[F]) AddScaled(s F, o *Of[F]) {
	if g.Nx != o.Nx || g.Ny != o.Ny {
		panic("grid: AddScaled dimension mismatch")
	}
	for i := range g.Data {
		g.Data[i] += s * o.Data[i]
	}
}

// MinMax returns the smallest and largest sample values.
func (g *Of[F]) MinMax() (min, max F) {
	min, max = F(math.Inf(1)), F(math.Inf(-1))
	for _, v := range g.Data {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Mean returns the arithmetic mean of the samples, accumulated in
// float64 at both precisions.
func (g *Of[F]) Mean() float64 {
	var s float64
	for _, v := range g.Data {
		s += float64(v)
	}
	return s / float64(len(g.Data))
}

// Sub copies the rectangle [x0, x0+nx) × [y0, y0+ny) into a new grid
// whose coordinate origin is adjusted so physical positions are
// preserved.
func (g *Of[F]) Sub(x0, y0, nx, ny int) *Of[F] {
	if x0 < 0 || y0 < 0 || nx < 1 || ny < 1 || x0+nx > g.Nx || y0+ny > g.Ny {
		panic(fmt.Sprintf("grid: Sub(%d,%d,%d,%d) out of range for %dx%d", x0, y0, nx, ny, g.Nx, g.Ny))
	}
	s := NewOf[F](nx, ny)
	s.Dx, s.Dy = g.Dx, g.Dy
	s.X0 = g.X0 + float64(x0)*g.Dx
	s.Y0 = g.Y0 + float64(y0)*g.Dy
	for iy := 0; iy < ny; iy++ {
		copy(s.Data[iy*nx:(iy+1)*nx], g.Data[(y0+iy)*g.Nx+x0:(y0+iy)*g.Nx+x0+nx])
	}
	return s
}

// Row returns the iy-th row as a shared-backing slice view.
func (g *Of[F]) Row(iy int) []F { return g.Data[iy*g.Nx : (iy+1)*g.Nx] }

// Tile is one rectangle of a Tiling decomposition: samples
// [X0, X0+Nx) × [Y0, Y0+Ny) of the decomposed raster.
type Tile struct {
	X0, Y0 int
	Nx, Ny int
}

// Tiling splits an nx×ny raster into row-major tiles of at most tx×ty
// samples. Edge tiles absorb the remainder, so every sample belongs to
// exactly one tile and no tile is empty.
func Tiling(nx, ny, tx, ty int) []Tile {
	if nx < 1 || ny < 1 {
		panic(fmt.Sprintf("grid: invalid raster %dx%d", nx, ny))
	}
	if tx < 1 || ty < 1 {
		panic(fmt.Sprintf("grid: invalid tile %dx%d", tx, ty))
	}
	tilesX := (nx + tx - 1) / tx
	tilesY := (ny + ty - 1) / ty
	out := make([]Tile, 0, tilesX*tilesY)
	for y0 := 0; y0 < ny; y0 += ty {
		h := min(ty, ny-y0)
		for x0 := 0; x0 < nx; x0 += tx {
			out = append(out, Tile{X0: x0, Y0: y0, Nx: min(tx, nx-x0), Ny: h})
		}
	}
	return out
}

// EqualWithin reports whether two grids share geometry and all samples
// differ by at most tol.
func (g *Of[F]) EqualWithin(o *Of[F], tol float64) bool {
	if g.Nx != o.Nx || g.Ny != o.Ny || g.Dx != o.Dx || g.Dy != o.Dy || g.X0 != o.X0 || g.Y0 != o.Y0 {
		return false
	}
	for i := range g.Data {
		if math.Abs(float64(g.Data[i])-float64(o.Data[i])) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute sample difference between two
// same-sized grids.
func (g *Of[F]) MaxAbsDiff(o *Of[F]) float64 {
	if g.Nx != o.Nx || g.Ny != o.Ny {
		panic("grid: MaxAbsDiff dimension mismatch")
	}
	m := 0.0
	for i := range g.Data {
		if d := math.Abs(float64(g.Data[i]) - float64(o.Data[i])); d > m {
			m = d
		}
	}
	return m
}
