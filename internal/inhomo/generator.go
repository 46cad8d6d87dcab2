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
	// in steady state beyond the returned grid.
	arenas sync.Pool
}

// tileArena is one worker's scratch for rendering a multi-active tile.
// The f64 and f32 paths keep separate field buffers so a mixed-precision
// serving workload does not thrash one set of allocations.
type tileArena struct {
	fields   [][]float64 // one tile-sized buffer per active component
	fields32 [][]float32 // f32 render path's counterpart
	w        []float64   // BlendWeights output, length M
	active   []int       // indices of active components
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

func growFloats32(buf []float32, n int) []float32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float32, n)
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
	g.arenas.New = func() any { return &tileArena{} }
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
	out.Dx, out.Dy = g.dx, g.dy
	out.X0 = float64(i0) * g.dx
	out.Y0 = float64(j0) * g.dy
	if g.Reference {
		g.generateReference(out, i0, j0)
		return
	}
	nx, ny := out.Nx, out.Ny
	switch g.Engine {
	case EngineDense:
		g.generateFast(out, i0, j0)
		return
	case EngineTiled:
		tiles := grid.Tiling(nx, ny, g.tileSize(), g.tileSize())
		g.generateTiled(out, i0, j0, tiles, g.tileMasks(tiles, i0, j0))
		return
	}
	if _, ok := g.blender.(SupportMasker); !ok {
		g.generateFast(out, i0, j0)
		return
	}
	tiles := grid.Tiling(nx, ny, g.tileSize(), g.tileSize())
	masks := g.tileMasks(tiles, i0, j0)
	if shared := sharedMask(masks); shared != nil {
		g.generateFastMasked(out, i0, j0, shared)
		return
	}
	g.generateTiled(out, i0, j0, tiles, masks)
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

// generateTiled is the sparse engine: each tile runs only its active
// components through the destination-buffer convolution API and fuses
// the w·F accumulation, so work scales with Σ active-tile area instead
// of M × window area. Tiles are scheduled through par.Dynamic because
// their costs are heterogeneous — a seam tile with three active
// components costs several times an interior tile — and static chunking
// would idle workers behind the expensive ones.
func (g *Generator) generateTiled(out *grid.Grid, i0, j0 int64, tiles []grid.Tile, masks [][]bool) {
	par.Dynamic(len(tiles), g.Workers, func(t int) {
		g.renderTile(out, i0, j0, tiles[t], masks[t])
	})
}

// renderTile materializes one tile of the window in place. The tile is
// the unit of parallelism, so the per-component generation below runs
// single-worker.
func (g *Generator) renderTile(out *grid.Grid, i0, j0 int64, t grid.Tile, mask []bool) {
	ar := g.arenas.Get().(*tileArena)
	defer g.arenas.Put(ar)
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

	base := t.Y0*out.Nx + t.X0
	ti0, tj0 := i0+int64(t.X0), j0+int64(t.Y0)
	if len(active) == 1 {
		// Sole active component ⇒ its weight is identically 1 on the
		// tile (weights sum to 1 and the rest are provably zero):
		// generate straight into the output rows, no blend pass.
		g.convs[active[0]].GenerateAtInto(out.Data[base:], out.Nx, ti0, tj0, t.Nx, t.Ny, 1)
		return
	}

	n := t.Nx * t.Ny
	if cap(ar.fields) < len(active) {
		ar.fields = append(ar.fields, make([][]float64, len(active)-len(ar.fields))...)
	}
	fields := ar.fields[:len(active)]
	for s, m := range active {
		fields[s] = growFloats(fields[s], n)
		g.convs[m].GenerateAtInto(fields[s], t.Nx, ti0, tj0, t.Nx, t.Ny, 1)
	}
	ar.fields = fields[:cap(fields)]
	w := growFloats(ar.w, len(mask))
	ar.w = w
	blendRows(g.blender, out.Data[base:], out.Nx, t.Nx, fields, active, 0, t.Ny, ti0, tj0, g.dx, g.dy, w)
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

// generateFast produces each component's homogeneous surface from the
// shared noise field and mixes them pointwise: f = Σ_m g_n(m)·F_m(n).
// This is eqn (46) after exchanging the two sums.
func (g *Generator) generateFast(out *grid.Grid, i0, j0 int64) {
	active := make([]bool, len(g.kernels))
	for i := range active {
		active[i] = true
	}
	g.generateFastMasked(out, i0, j0, active)
}

// generateFastMasked is generateFast restricted to the components a
// window-wide support mask leaves active: components the mask rules out
// carry zero weight everywhere, so skipping their fields is exact. With
// a single active component the window is that component's homogeneous
// surface and the blend sweep is skipped entirely.
func (g *Generator) generateFastMasked(out *grid.Grid, i0, j0 int64, active []bool) {
	nx, ny := out.Nx, out.Ny
	count := 0
	last := 0
	for m, on := range active {
		if on {
			count++
			last = m
		}
	}
	if count == 1 {
		g.convs[last].GenerateAtInto(out.Data, nx, i0, j0, nx, ny, g.Workers)
		return
	}
	fields := make([][]float64, 0, count)
	act := make([]int, 0, count)
	for m, cg := range g.convs {
		if !active[m] {
			continue
		}
		f := make([]float64, nx*ny)
		cg.GenerateAtInto(f, nx, i0, j0, nx, ny, g.Workers)
		fields = append(fields, f)
		act = append(act, m)
	}
	par.For(ny, g.Workers, func(lo, hi int) {
		w := make([]float64, len(g.kernels))
		blendRows(g.blender, out.Data, nx, nx, fields, act, lo, hi, i0, j0, g.dx, g.dy, w)
	})
}

// generateReference evaluates eqn (46) literally: at every output point
// the blended kernel Σ_m g·w̃(m) is applied to the noise window.
func (g *Generator) generateReference(out *grid.Grid, i0, j0 int64) {
	field := rng.NewField(g.seed)
	nx, ny := out.Nx, out.Ny
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
				out.Data[j*nx+i] = acc
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
