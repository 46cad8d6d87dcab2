package inhomo

import (
	"fmt"
	"sync"

	"roughsurface/internal/approx"
	"roughsurface/internal/convgen"
	"roughsurface/internal/grid"
	"roughsurface/internal/par"
	"roughsurface/internal/rng"
	"roughsurface/internal/simd"
)

// Engine selects the inhomogeneous generation path.
type Engine int

const (
	// EngineAuto uses the tile-sparse path when the blender publishes
	// support masks and those masks vary across the window's tiles;
	// otherwise it takes the dense blended-fields path restricted to
	// the components the masks leave active (spatially uniform masks —
	// e.g. UniformBlender — gain nothing from tiling, and a full-window
	// convolution amortizes its FFT padding better than many tiles).
	EngineAuto Engine = iota
	// EngineDense forces the full-window blended-fields path: all M
	// component surfaces over the whole window, mixed pointwise.
	EngineDense
	// EngineTiled forces the tile-sparse path. Blenders without
	// SupportMask get sampled (non-conservative) masks; see DESIGN.md
	// §9 before forcing this on a custom blender.
	EngineTiled
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
	// Engine selects the generation path (default EngineAuto).
	Engine Engine
	// TileSize overrides the tile edge of the sparse path in samples
	// (0 = the 64-sample default).
	TileSize int
	// Reference forces the literal per-point evaluation of eqn (46)
	// instead of the algebraically identical blended-fields paths.
	// O(outputs × taps × M); intended for validation.
	Reference bool

	dx, dy float64

	// arenas pools the per-tile scratch (active component fields and
	// the weight vector) so the sparse path allocates nothing per tile
	// in steady state beyond the returned grid. There is one pool per
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
	out := g.newWindow(i0, j0, nx, ny)
	g.GenerateAtInto(out, i0, j0)
	return out
}

// GenerateAtInto renders the window with lower lattice corner (i0, j0)
// into the caller-owned grid; out.Nx×out.Ny fixes the window size and
// the grid's spacing/origin metadata is overwritten to match. Reusing
// one grid across calls makes steady-state generation allocation-free
// on the tiled path (per-tile scratch is pooled).
func (g *Generator) GenerateAtInto(out *grid.Grid, i0, j0 int64) {
	if out == nil || out.Nx < 1 || out.Ny < 1 {
		panic("inhomo: GenerateAtInto needs a non-empty destination grid")
	}
	out.Dx, out.Dy, out.X0, out.Y0 = g.dx, g.dy, float64(i0)*g.dx, float64(j0)*g.dy
	RenderInto(g, out.Data, out.Nx, out.Ny, i0, j0)
}

// GenerateAt32 is GenerateAt at float32 render precision. Every engine
// runs the same path selection and code as the float64 API, with the
// component convolutions and the weight blend instantiated at float32;
// agreement with the float64 engine is tolerance-gated in
// precision_test.go. The serving daemon uses this path for f32 tiles.
func (g *Generator) GenerateAt32(i0, j0 int64, nx, ny int) *grid.Grid32 {
	out := grid.New32(nx, ny)
	g.GenerateAtInto32(out, i0, j0)
	return out
}

// GenerateAtInto32 renders the window with lower lattice corner
// (i0, j0) into the caller-owned float32 grid, mirroring
// GenerateAtInto's contract (size fixed by the grid, metadata
// overwritten, pooled per-tile scratch).
func (g *Generator) GenerateAtInto32(out *grid.Grid32, i0, j0 int64) {
	if out == nil || out.Nx < 1 || out.Ny < 1 {
		panic("inhomo: GenerateAtInto32 needs a non-empty destination grid")
	}
	out.Dx, out.Dy, out.X0, out.Y0 = g.dx, g.dy, float64(i0)*g.dx, float64(j0)*g.dy
	RenderInto(g, out.Data, out.Nx, out.Ny, i0, j0)
}

// RenderInto is the one body behind GenerateAtInto and GenerateAtInto32:
// it renders the nx×ny window with lower lattice corner (i0, j0) at
// precision F into dst, row-major at stride nx. Engine selection,
// tiling, the shared noise plane, and the blend are the same code at
// both precisions.
func RenderInto[F simd.Float](g *Generator, dst []F, nx, ny int, i0, j0 int64) {
	if nx < 1 || ny < 1 || len(dst) < nx*ny {
		panic(fmt.Sprintf("inhomo: window %dx%d does not fit %d samples", nx, ny, len(dst)))
	}
	if g.Reference {
		generateReference(g, dst, nx, ny, i0, j0)
		return
	}
	switch g.Engine {
	case EngineDense:
		generateDense(g, dst, nx, ny, i0, j0, nil)
		return
	case EngineTiled:
		tiles := grid.Tiling(nx, ny, g.tileSize(), g.tileSize())
		generateTiled(g, dst, nx, ny, i0, j0, tiles, g.tileMasks(tiles, i0, j0))
		return
	}
	if _, ok := g.blender.(SupportMasker); !ok {
		generateDense(g, dst, nx, ny, i0, j0, nil)
		return
	}
	tiles := grid.Tiling(nx, ny, g.tileSize(), g.tileSize())
	masks := g.tileMasks(tiles, i0, j0)
	if shared := sharedMask(masks); shared != nil {
		generateDense(g, dst, nx, ny, i0, j0, shared)
		return
	}
	generateTiled(g, dst, nx, ny, i0, j0, tiles, masks)
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
	sm, _ := g.blender.(SupportMasker)
	masks := make([][]bool, len(tiles))
	slab := make([]bool, len(tiles)*len(g.kernels))
	for t, tile := range tiles {
		ti0, tj0 := i0+int64(tile.X0), j0+int64(tile.Y0)
		x0, y0 := float64(ti0)*g.dx, float64(tj0)*g.dy
		x1 := float64(ti0+int64(tile.Nx-1)) * g.dx
		y1 := float64(tj0+int64(tile.Ny-1)) * g.dy
		var qm []bool
		if sm != nil {
			qm = sm.SupportMask(x0, y0, x1, y1)
		} else {
			qm = sampleSupportMask(g.blender, x0, y0, x1, y1)
		}
		masks[t] = slab[t*len(g.kernels) : (t+1)*len(g.kernels)]
		copy(masks[t], qm)
	}
	return masks
}

// sharedMask returns the single mask all tiles agree on, or nil when
// the masks vary — the sparsity signal EngineAuto keys on.
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

// noisePlane is a window's shared noise plane: the field at precision
// F over the window plus the largest halo among its readers, row-major
// at stride pnx from lattice point (pi0, pj0). Every component reads
// the same seed's field, so one plane serves all tiles and all
// readers, and the Box–Muller transform (log/sqrt/cos per sample, the
// dominant cost of small-kernel rendering) runs once per lattice point
// instead of once per tile per component.
//
// The rule is the same at both precisions: component m reads the plane
// iff it is active somewhere in the window and its engine at the
// window size is direct. A plane read is bit-identical to the
// self-contained direct engine. Every other component renders
// self-contained, choosing its engine at the size it renders (tile or
// window). No plane is built when nothing reads it (DESIGN.md §13).
type noisePlane[F simd.Float] struct {
	data     []F
	pnx      int
	pi0, pj0 int64
	reads    []bool // per component
}

// newNoisePlane builds the plane of an nx×ny window whose component m
// is active somewhere iff active[m].
func newNoisePlane[F simd.Float](g *Generator, i0, j0 int64, nx, ny int, active []bool) *noisePlane[F] {
	p := &noisePlane[F]{reads: make([]bool, len(g.kernels))}
	readers := 0
	var l, r, t, b int
	for m, k := range g.kernels {
		if !active[m] || g.convs[m].EngineFor(nx, ny) != convgen.EngineDirect {
			continue
		}
		p.reads[m] = true
		readers++
		l, r = max(l, k.CX), max(r, k.Nx-1-k.CX)
		t, b = max(t, k.CY), max(b, k.Ny-1-k.CY)
	}
	if readers == 0 {
		return p
	}
	p.pnx = nx + l + r
	p.pi0, p.pj0 = i0-int64(l), j0-int64(t)
	p.data = make([]F, p.pnx*(ny+t+b))
	convgen.FillPlane(g.convs[0], p.data, p.pnx, p.pi0, p.pj0, g.Workers)
	return p
}

// render renders component m over the window (i0, j0, nx, ny) into dst
// at the given row stride: from the plane when m reads it, through the
// self-contained convolution otherwise.
func (p *noisePlane[F]) render(g *Generator, m int, dst []F, stride int, i0, j0 int64, nx, ny, workers int) {
	if p.reads[m] {
		convgen.ConvolvePlaneInto(g.convs[m], dst, stride, p.data, p.pnx, p.pi0, p.pj0, i0, j0, nx, ny, workers)
		return
	}
	convgen.RenderInto(g.convs[m], dst, stride, i0, j0, nx, ny, workers)
}

// generateTiled is the sparse engine: each tile runs only its active
// components through the destination-buffer convolution API and fuses
// the w·F accumulation, so work scales with Σ active-tile area instead
// of M × window area. Tiles are scheduled through par.Dynamic because
// their costs are heterogeneous — a seam tile with three active
// components costs several times an interior tile — and static chunking
// would idle workers behind the expensive ones.
func generateTiled[F simd.Float](g *Generator, dst []F, nx, ny int, i0, j0 int64, tiles []grid.Tile, masks [][]bool) {
	anywhere := make([]bool, len(g.kernels))
	for _, mask := range masks {
		for m, on := range mask {
			anywhere[m] = anywhere[m] || on
		}
	}
	plane := newNoisePlane[F](g, i0, j0, nx, ny, anywhere)
	par.Dynamic(len(tiles), g.Workers, func(t int) {
		renderTile(g, dst, nx, i0, j0, tiles[t], masks[t], plane)
	})
}

// renderTile materializes one tile of the window in place; the window
// is dst at row stride nx. The tile is the unit of parallelism, so the
// per-component generation below runs single-worker.
func renderTile[F simd.Float](g *Generator, dst []F, nx int, i0, j0 int64, t grid.Tile, mask []bool, plane *noisePlane[F]) {
	pool := arenaPool[F](g)
	ar := pool.Get().(*tileArena[F])
	defer pool.Put(ar)
	active := ar.active[:0]
	for m, on := range mask {
		if on {
			active = append(active, m)
		}
	}
	if len(active) == 0 {
		// A conservative mask can never be all-false under a partition
		// of unity; guard against a broken custom masker anyway.
		for m := range mask {
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
		plane.render(g, active[0], dst[base:], nx, ti0, tj0, t.Nx, t.Ny, 1)
		return
	}

	n := t.Nx * t.Ny
	if cap(ar.fields) < len(active) {
		ar.fields = append(ar.fields, make([][]F, len(active)-len(ar.fields))...)
	}
	fields := ar.fields[:len(active)]
	for s, m := range active {
		fields[s] = grow(fields[s], n)
		plane.render(g, m, fields[s], t.Nx, ti0, tj0, t.Nx, t.Ny, 1)
	}
	ar.fields = fields[:cap(fields)]
	w := grow(ar.w, len(mask))
	ar.w = w
	blendRows(g.blender, dst[base:], nx, t.Nx, fields, active, 0, t.Ny, ti0, tj0, g.dx, g.dy, w)
}

// blendRows is the precision-generic weight-blend inner loop shared by
// the tiled and dense engines: over rows [jlo, jhi) it queries the
// blender once per sample and accumulates Σ_s w[active[s]]·fields[s].
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

// generateDense produces each component's homogeneous surface from the
// shared noise field over the whole window and mixes them pointwise:
// f = Σ_m g_n(m)·F_m(n), eqn (46) after exchanging the two sums. A
// non-nil window-wide support mask restricts it to the components the
// mask leaves active: the others carry zero weight everywhere, so
// skipping their fields is exact. With a single active component the
// window is that component's homogeneous surface, rendered
// self-contained with no blend sweep.
func generateDense[F simd.Float](g *Generator, dst []F, nx, ny int, i0, j0 int64, active []bool) {
	if active == nil {
		active = make([]bool, len(g.kernels))
		for m := range active {
			active[m] = true
		}
	}
	var act []int
	for m, on := range active {
		if on {
			act = append(act, m)
		}
	}
	if len(act) == 1 {
		convgen.RenderInto(g.convs[act[0]], dst, nx, i0, j0, nx, ny, g.Workers)
		return
	}
	plane := newNoisePlane[F](g, i0, j0, nx, ny, active)
	fields := make([][]F, len(act))
	for s, m := range act {
		fields[s] = make([]F, nx*ny)
		plane.render(g, m, fields[s], nx, i0, j0, nx, ny, g.Workers)
	}
	par.For(ny, g.Workers, func(lo, hi int) {
		w := make([]float64, len(g.kernels))
		blendRows(g.blender, dst, nx, nx, fields, act, lo, hi, i0, j0, g.dx, g.dy, w)
	})
}

// generateReference evaluates eqn (46) literally: at every output point
// the blended kernel Σ_m g·w̃(m) is applied to the noise window. The
// sum runs in float64 at both precisions — the evaluator exists to
// validate the fast paths — and is converted to F once per sample.
func generateReference[F simd.Float](g *Generator, dst []F, nx, ny int, i0, j0 int64) {
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

func (g *Generator) newWindow(i0, j0 int64, nx, ny int) *grid.Grid {
	out := grid.New(nx, ny)
	out.Dx, out.Dy = g.dx, g.dy
	out.X0 = float64(i0) * g.dx
	out.Y0 = float64(j0) * g.dy
	return out
}

// WeightMap renders component m's blend weight over a window — useful
// for inspecting transition geometry and for the per-region statistics
// in the experiment harness.
func (g *Generator) WeightMap(m int, i0, j0 int64, nx, ny int) *grid.Grid {
	if m < 0 || m >= len(g.kernels) {
		panic(fmt.Sprintf("inhomo: WeightMap component %d of %d", m, len(g.kernels)))
	}
	out := g.newWindow(i0, j0, nx, ny)
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
