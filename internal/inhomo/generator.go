package inhomo

import (
	"fmt"
	"slices"
	"sync"

	"roughsurface/internal/approx"
	"roughsurface/internal/convgen"
	"roughsurface/internal/grid"
	"roughsurface/internal/par"
	"roughsurface/internal/rng"
	"roughsurface/internal/simd"
)

// defaultTileSize is the tile edge in samples: 64² float64 = 32 KiB per
// scratch buffer, small enough that a tile's working set (a few active
// component fields plus the noise window) stays cache-resident.
const defaultTileSize = 64

// Generator synthesizes inhomogeneous surfaces from M homogeneous
// component kernels and a Blender. All kernels must share the sample
// spacing; they may differ in size.
//
// A Generator is safe for concurrent use: per-call scratch comes from
// an internal pool and the per-component convolution generators are
// never mutated after construction. Returned grids are caller-owned.
type Generator struct {
	kernels []*convgen.Kernel
	convs   []*convgen.Generator // one per component, sharing the noise seed
	blender Blender
	seed    uint64

	// Workers bounds per-call parallelism (0 = GOMAXPROCS).
	Workers int
	// TileSize overrides the tile edge in samples (0 = the 64-sample
	// default).
	TileSize int

	dx, dy float64

	// arenas pools the per-tile scratch (active component fields and
	// the weight vector), so the tile-sized buffers are reused across
	// tiles and calls instead of allocated per tile. There is one pool per
	// render precision ([0] float64, [1] float32; see arenaPool), so a
	// mixed-precision serving workload does not thrash one set of
	// allocations.
	arenas [2]sync.Pool
}

// tileArena is one worker's scratch for rendering a multi-active tile
// at precision F.
type tileArena[F simd.Float] struct {
	fields [][]F     // one tile-sized buffer per active component
	w      []float64 // BlendWeights output, length M
	active []int     // indices of active components
}

// arenaPool returns g's tile-scratch pool for precision F.
func arenaPool[F simd.Float](g *Generator) *sync.Pool {
	if _, ok := any(F(0)).(float32); ok {
		return &g.arenas[1]
	}
	return &g.arenas[0]
}

func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// NewGenerator validates the component set against the blender.
func NewGenerator(kernels []*convgen.Kernel, blender Blender, seed uint64) (*Generator, error) {
	if len(kernels) == 0 {
		return nil, fmt.Errorf("inhomo: no component kernels")
	}
	if blender == nil {
		return nil, fmt.Errorf("inhomo: nil blender")
	}
	if blender.NumComponents() != len(kernels) {
		return nil, fmt.Errorf("inhomo: blender expects %d components, got %d kernels",
			blender.NumComponents(), len(kernels))
	}
	dx, dy := kernels[0].Dx, kernels[0].Dy
	convs := make([]*convgen.Generator, len(kernels))
	for i, k := range kernels {
		if !approx.Exact(k.Dx, dx) || !approx.Exact(k.Dy, dy) {
			return nil, fmt.Errorf("inhomo: kernel %d spacing (%g,%g) differs from (%g,%g)",
				i, k.Dx, k.Dy, dx, dy)
		}
		convs[i] = convgen.NewGenerator(k, seed) // same seed → same noise field
	}
	g := &Generator{kernels: kernels, convs: convs, blender: blender, seed: seed, dx: dx, dy: dy}
	g.arenas[0].New = func() any { return &tileArena[float64]{} }
	g.arenas[1].New = func() any { return &tileArena[float32]{} }
	return g, nil
}

// MustGenerator is NewGenerator that panics on error.
func MustGenerator(kernels []*convgen.Kernel, blender Blender, seed uint64) *Generator {
	g, err := NewGenerator(kernels, blender, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// GenerateAt materializes the window with lower lattice corner (i0, j0)
// of nx×ny samples.
func (g *Generator) GenerateAt(i0, j0 int64, nx, ny int) *grid.Grid {
	return generateAt[float64](g, i0, j0, nx, ny)
}

// GenerateAtInto renders the window with lower lattice corner (i0, j0)
// into the caller-owned grid; out.Nx×out.Ny fixes the window size and
// the grid's spacing/origin metadata is overwritten to match. Reusing
// one grid across calls saves the output allocation; the per-tile
// scratch is pooled either way.
func (g *Generator) GenerateAtInto(out *grid.Grid, i0, j0 int64) { generateAtInto(g, out, i0, j0) }

// GenerateAt32 is GenerateAt at float32 render precision. It runs the
// same tiling and code as the float64 API, with the component
// convolutions and the weight blend instantiated at float32;
// agreement with the float64 engine is tolerance-gated in
// precision_test.go. The serving daemon uses this path for f32 tiles.
func (g *Generator) GenerateAt32(i0, j0 int64, nx, ny int) *grid.Grid32 {
	return generateAt[float32](g, i0, j0, nx, ny)
}

// GenerateAtInto32 is GenerateAtInto into a caller-owned float32 grid.
func (g *Generator) GenerateAtInto32(out *grid.Grid32, i0, j0 int64) { generateAtInto(g, out, i0, j0) }

// generateAt allocates an nx×ny grid at precision F and renders the
// window into it.
func generateAt[F simd.Float](g *Generator, i0, j0 int64, nx, ny int) *grid.Of[F] {
	out := grid.NewOf[F](nx, ny)
	generateAtInto(g, out, i0, j0)
	return out
}

// generateAtInto is the one validate-and-render body behind the
// GenerateAtInto pair: it sets out's spacing and origin to the window's
// and renders it through RenderInto.
func generateAtInto[F simd.Float](g *Generator, out *grid.Of[F], i0, j0 int64) {
	if out == nil || out.Nx < 1 || out.Ny < 1 {
		panic("inhomo: GenerateAtInto needs a non-empty destination grid")
	}
	out.Dx, out.Dy, out.X0, out.Y0 = g.dx, g.dy, float64(i0)*g.dx, float64(j0)*g.dy
	RenderInto(g, out.Data, out.Nx, out.Ny, i0, j0)
}

// RenderInto is the one body behind GenerateAtInto and GenerateAtInto32:
// it renders the nx×ny window with lower lattice corner (i0, j0) at
// precision F into dst, row-major at stride nx. The window is cut into
// tiles, each tile gets the blender's support mask, and generateTiled
// renders them. When every tile shares one mask (a spatially uniform
// blend, or a window that fits one tile) tiling gains nothing, so the
// window renders as one window-sized tile with the workers inside it;
// if that mask leaves one component, the window is that component's
// homogeneous surface, rendered self-contained without a noise plane.
// The tiling, the shared noise plane and the blend are the same code at
// both precisions.
func RenderInto[F simd.Float](g *Generator, dst []F, nx, ny int, i0, j0 int64) {
	if nx < 1 || ny < 1 || len(dst) < nx*ny {
		panic(fmt.Sprintf("inhomo: window %dx%d does not fit %d samples", nx, ny, len(dst)))
	}
	tiles := grid.Tiling(nx, ny, g.tileSize(), g.tileSize())
	masks := g.tileMasks(tiles, i0, j0)
	shared := sharedMask(masks)
	if shared == nil {
		generateTiled(g, dst, nx, ny, i0, j0, tiles, masks, 1)
		return
	}
	if m := slices.Index(shared, true); m >= 0 && !slices.Contains(shared[m+1:], true) {
		convgen.RenderInto(g.convs[m], dst, nx, i0, j0, nx, ny, g.Workers)
		return
	}
	generateTiled(g, dst, nx, ny, i0, j0, []grid.Tile{{Nx: nx, Ny: ny}}, [][]bool{shared}, g.Workers)
}

// GenerateCentered materializes an nx×ny window centered on the lattice
// origin (the paper's figure convention).
func (g *Generator) GenerateCentered(nx, ny int) *grid.Grid {
	return g.GenerateAt(-int64(nx/2), -int64(ny/2), nx, ny)
}

func (g *Generator) tileSize() int {
	if g.TileSize > 0 {
		return g.TileSize
	}
	return defaultTileSize
}

// tileMasks computes the per-tile active-component masks, one query
// per tile over the tile's own sample rectangle. The blend
// f = Σ_m g_m·F_m is pointwise, so a component is needed exactly where
// its weight is nonzero on the tile's samples (DESIGN.md §9). Both
// corners come from blendRows' coordinate expression, so no sample the
// blend evaluates lies an ulp outside the queried rectangle.
func (g *Generator) tileMasks(tiles []grid.Tile, i0, j0 int64) [][]bool {
	masks := make([][]bool, len(tiles))
	slab := make([]bool, len(tiles)*len(g.kernels))
	for t, tile := range tiles {
		ti0, tj0 := i0+int64(tile.X0), j0+int64(tile.Y0)
		x0, y0 := float64(ti0)*g.dx, float64(tj0)*g.dy
		x1 := float64(ti0+int64(tile.Nx-1)) * g.dx
		y1 := float64(tj0+int64(tile.Ny-1)) * g.dy
		masks[t] = slab[t*len(g.kernels) : (t+1)*len(g.kernels)]
		g.blender.SupportMask(masks[t], x0, y0, x1, y1)
	}
	return masks
}

// sharedMask returns the single mask all tiles agree on, or nil when
// the masks vary — the sparsity signal RenderInto keys on.
func sharedMask(masks [][]bool) []bool {
	first := masks[0]
	for _, m := range masks[1:] {
		for i := range m {
			if m[i] != first[i] {
				return nil
			}
		}
	}
	return first
}

// noisePlane is a window's shared noise plane: the float64 field over
// the window's columns plus the largest halo among its active
// components, row-major at stride pnx from lattice point (pi0, pj0).
// Every component reads the same seed's field, so every render of the
// window reads this one plane, whatever its engine and precision
// (convgen.ConvolvePlaneInto), and the Box–Muller transform (log, sqrt
// and cos per sample) runs once per lattice point instead of once per
// tile per component. A plane read is bit-identical to the
// self-contained render (DESIGN.md §13).
//
// The plane holds a band of rows at a time. cover slides it down the
// window: rows the next band shares with the last (its halo) are moved,
// not refilled, so each lattice point is filled once however many bands
// the window takes.
type noisePlane struct {
	data     []float64 // rows × pnx resident samples
	pnx      int
	pi0, pj0 int64 // lattice point of data[0]
	rows     int
	top      int // halo rows a band needs above its first output row
	halo     int // halo rows above plus below
}

// newNoisePlane sizes the plane of an nx-wide window at lattice column
// i0 whose component m is active somewhere iff active[m]. It holds no
// rows until cover is called.
func newNoisePlane(g *Generator, i0 int64, nx int, active []bool) *noisePlane {
	var l, r, t, b int
	for m, k := range g.kernels {
		if active[m] {
			l, r = max(l, k.CX), max(r, k.Nx-1-k.CX)
			t, b = max(t, k.CY), max(b, k.Ny-1-k.CY)
		}
	}
	return &noisePlane{pnx: nx + l + r, pi0: i0 - int64(l), top: t, halo: t + b}
}

// cover makes the plane hold the noise that output rows [y0, y1) of a
// window at lattice row j0 read: lattice rows [j0+y0−top, j0+y1+bottom).
// Rows it already holds are moved to the top of the buffer and only the
// rest are filled, with up to g.Workers goroutines. The buffer is sized
// by the first band, the tallest one, and reused for the rest.
func (p *noisePlane) cover(g *Generator, j0 int64, y0, y1 int) {
	lo := j0 + int64(y0) - int64(p.top)
	n := y1 - y0 + p.halo
	keep := 0
	if p.rows > 0 && lo >= p.pj0 && lo < p.pj0+int64(p.rows) {
		keep = min(int(p.pj0+int64(p.rows)-lo), n)
	}
	buf := p.data
	if cap(buf) < n*p.pnx {
		buf = make([]float64, n*p.pnx)
	}
	buf = buf[:n*p.pnx]
	if keep > 0 {
		from := int(lo-p.pj0) * p.pnx
		copy(buf, p.data[from:from+keep*p.pnx])
	}
	p.data, p.pj0, p.rows = buf, lo, n
	convgen.FillPlane(g.convs[0], buf[keep*p.pnx:], p.pnx, p.pi0, lo+int64(keep), g.Workers)
}

// renderPlane renders component m over the window (i0, j0, nx, ny) into
// dst at the given row stride, reading its noise from the plane.
func renderPlane[F simd.Float](g *Generator, p *noisePlane, m int, dst []F, stride int, i0, j0 int64, nx, ny, workers int) {
	convgen.ConvolvePlaneInto(g.convs[m], dst, stride, p.data, p.pnx, p.pi0, p.pj0, i0, j0, nx, ny, workers)
}

// generateTiled is the sparse engine: each tile runs only its active
// components through the destination-buffer convolution API and fuses
// the w·F accumulation, so work scales with Σ active-tile area instead
// of M × window area. Tiles are scheduled through par.Dynamic because
// their costs are heterogeneous — a seam tile with three active
// components costs several times an interior tile — and static chunking
// would idle workers behind the expensive ones. Each tile renders with
// the given number of workers: 1 when there are many tiles to spread
// over g.Workers, g.Workers for a window of one tile.
//
// The tiles run in bands of whole tile rows, and the noise plane slides
// from band to band (DESIGN.md §9). A band is the fewest tile rows whose
// nominal height covers the plane's halo, so at most a band plus its
// halo is resident and each band refills at least half the plane.
func generateTiled[F simd.Float](g *Generator, dst []F, nx, ny int, i0, j0 int64, tiles []grid.Tile, masks [][]bool, workers int) {
	anywhere := make([]bool, len(g.kernels))
	for _, mask := range masks {
		if !slices.Contains(mask, true) {
			// A conservative mask can never be all-false under a
			// partition of unity; guard against a broken custom masker
			// anyway by rendering every component there.
			for m := range mask {
				mask[m] = true
			}
		}
		for m, on := range mask {
			anywhere[m] = anywhere[m] || on
		}
	}
	plane := newNoisePlane(g, i0, nx, anywhere)
	// rowStart[r] is the index of tile row r's first tile.
	var rowStart []int
	for t, tile := range tiles {
		if t == 0 || tile.Y0 != tiles[t-1].Y0 {
			rowStart = append(rowStart, t)
		}
	}
	rowStart = append(rowStart, len(tiles))
	ts := g.tileSize()
	per := max(1, (plane.halo+ts-1)/ts)
	for r := 0; r+1 < len(rowStart); r += per {
		lo, hi := rowStart[r], rowStart[min(r+per, len(rowStart)-1)]
		y0, y1 := tiles[lo].Y0, tiles[hi-1].Y0+tiles[hi-1].Ny
		plane.cover(g, j0, y0, y1)
		par.Dynamic(hi-lo, g.Workers, func(t int) {
			renderTile(g, dst, nx, i0, j0, tiles[lo+t], masks[lo+t], plane, workers)
		})
	}
}

// renderTile materializes one tile of the window in place with the
// given number of workers; the window is dst at row stride nx.
func renderTile[F simd.Float](g *Generator, dst []F, nx int, i0, j0 int64, t grid.Tile, mask []bool, plane *noisePlane, workers int) {
	pool := arenaPool[F](g)
	ar := pool.Get().(*tileArena[F])
	defer pool.Put(ar)
	active := ar.active[:0]
	for m, on := range mask {
		if on {
			active = append(active, m)
		}
	}
	ar.active = active

	base := t.Y0*nx + t.X0
	ti0, tj0 := i0+int64(t.X0), j0+int64(t.Y0)
	if len(active) == 1 {
		// Sole active component ⇒ its weight is identically 1 on the
		// tile (weights sum to 1 and the rest are provably zero):
		// generate straight into the output rows, no blend pass.
		renderPlane(g, plane, active[0], dst[base:], nx, ti0, tj0, t.Nx, t.Ny, workers)
		return
	}

	n := t.Nx * t.Ny
	if cap(ar.fields) < len(active) {
		ar.fields = append(ar.fields, make([][]F, len(active)-len(ar.fields))...)
	}
	fields := ar.fields[:len(active)]
	for s, m := range active {
		fields[s] = grow(fields[s], n)
		renderPlane(g, plane, m, fields[s], t.Nx, ti0, tj0, t.Nx, t.Ny, workers)
	}
	ar.fields = fields[:cap(fields)]
	if workers == 1 {
		ar.w = grow(ar.w, len(mask))
		blendRows(g.blender, dst[base:], nx, t.Nx, fields, active, 0, t.Ny, ti0, tj0, g.dx, g.dy, ar.w)
		return
	}
	par.For(t.Ny, workers, func(lo, hi int) {
		w := make([]float64, len(mask))
		blendRows(g.blender, dst[base:], nx, t.Nx, fields, active, lo, hi, ti0, tj0, g.dx, g.dy, w)
	})
}

// blendRows is the precision-generic weight-blend inner loop of a
// tile: over rows [jlo, jhi) it queries the blender once per sample and
// accumulates Σ_s w[active[s]]·fields[s].
// dst row j spans dst[j*dstStride : j*dstStride+nx]; fields are packed
// at row stride nx with lattice origin (i0, j0). The float64
// instantiation performs exactly the arithmetic of the pre-generic
// loop; the float32 one rounds each weight once per use and
// accumulates in single precision, which the agreement gate in
// precision_test.go bounds (DESIGN.md §13).
func blendRows[F simd.Float](b Blender, dst []F, dstStride, nx int, fields [][]F, active []int,
	jlo, jhi int, i0, j0 int64, dx, dy float64, w []float64) {
	for j := jlo; j < jhi; j++ {
		y := float64(j0+int64(j)) * dy
		row := dst[j*dstStride : j*dstStride+nx]
		off := j * nx
		for i := range row {
			x := float64(i0+int64(i)) * dx
			b.BlendWeights(w, x, y)
			var acc F
			for s, m := range active {
				acc += F(w[m]) * fields[s][off+i]
			}
			row[i] = acc
		}
	}
}

// Reference evaluates eqn (46) literally into dst, like RenderInto: at
// every output point the blended kernel Σ_m g·w̃(m) is applied to the
// noise window. It costs O(outputs × taps × M) and exists to validate
// RenderInto, which exchanges the two sums. The sum runs in float64 at
// both precisions and is converted to F once per sample.
func Reference[F simd.Float](g *Generator, dst []F, nx, ny int, i0, j0 int64) {
	field := rng.NewField(g.seed)
	par.For(ny, g.Workers, func(lo, hi int) {
		w := make([]float64, len(g.kernels))
		for j := lo; j < hi; j++ {
			y := float64(j0+int64(j)) * g.dy
			for i := 0; i < nx; i++ {
				x := float64(i0+int64(i)) * g.dx
				g.blender.BlendWeights(w, x, y)
				var acc float64
				for m, k := range g.kernels {
					if w[m] == 0 {
						continue
					}
					var conv float64
					for b := 0; b < k.Ny; b++ {
						jn := j0 + int64(j) + int64(b-k.CY)
						for a := 0; a < k.Nx; a++ {
							in := i0 + int64(i) + int64(a-k.CX)
							conv += k.At(a, b) * field.At(in, jn)
						}
					}
					acc += w[m] * conv
				}
				dst[j*nx+i] = F(acc)
			}
		}
	})
}

// WeightMap renders component m's blend weight over a window — useful
// for inspecting transition geometry and for the per-region statistics
// in the experiment harness.
func (g *Generator) WeightMap(m int, i0, j0 int64, nx, ny int) *grid.Grid {
	if m < 0 || m >= len(g.kernels) {
		panic(fmt.Sprintf("inhomo: WeightMap component %d of %d", m, len(g.kernels)))
	}
	out := grid.New(nx, ny)
	out.Dx, out.Dy, out.X0, out.Y0 = g.dx, g.dy, float64(i0)*g.dx, float64(j0)*g.dy
	par.For(ny, g.Workers, func(lo, hi int) {
		w := make([]float64, len(g.kernels))
		for j := lo; j < hi; j++ {
			y := float64(j0+int64(j)) * g.dy
			for i := 0; i < nx; i++ {
				x := float64(i0+int64(i)) * g.dx
				g.blender.BlendWeights(w, x, y)
				out.Data[j*nx+i] = w[m]
			}
		}
	})
	return out
}
