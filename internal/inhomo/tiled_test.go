package inhomo

import (
	"math"
	"slices"
	"testing"

	"roughsurface/internal/approx"
	"roughsurface/internal/convgen"
	"roughsurface/internal/grid"
	"roughsurface/internal/spectrum"
)

// threeKernels returns components small enough that every window in
// these tests stays on the direct convolution engine, where the tiled
// and dense paths share the exact tap summation order.
func threeKernels(t *testing.T) []*convgen.Kernel {
	t.Helper()
	mk := func(s spectrum.Spectrum) *convgen.Kernel {
		k, err := convgen.Design(s, 1, 1, 6, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	return []*convgen.Kernel{
		mk(spectrum.MustGaussian(1.0, 4, 4)),
		mk(spectrum.MustExponential(2.0, 5, 5)),
		mk(spectrum.MustGaussian(0.5, 3, 3)),
	}
}

func tiledBlenders(t *testing.T) map[string]Blender {
	t.Helper()
	return map[string]Blender{
		"plate": mustPlateBlender(t, []Region{
			Rect{X0: math.Inf(-1), Y0: math.Inf(-1), X1: -8, Y1: math.Inf(1), T: 3},
			Rect{X0: -8, Y0: math.Inf(-1), X1: 8, Y1: math.Inf(1), T: 3},
			Rect{X0: 8, Y0: math.Inf(-1), X1: math.Inf(1), Y1: math.Inf(1), T: 3},
		}),
		"plate-circle": mustPlateBlender(t, []Region{
			Circle{CX: -5, CY: 2, R: 9, T: 2},
			Complement{Inner: Circle{CX: -5, CY: 2, R: 9, T: 2}},
			Rect{X0: 20, Y0: math.Inf(-1), X1: math.Inf(1), Y1: math.Inf(1), T: 2},
		}),
		"point": mustPointBlender(t, []Point{
			{X: -18, Y: -4, Component: 0},
			{X: 16, Y: 6, Component: 1},
			{X: 2, Y: 22, Component: 2},
		}, 7, 3),
		"uniform": UniformBlender{M: 3, Index: 1},
	}
}

// oneTile is a tile edge no test window reaches: every window renders
// as one window-sized tile, the path a window whose tiles share one
// mask takes.
const oneTile = 1 << 10

// reference renders the nx×ny window at (i0, j0) through the literal
// eqn (46) evaluator.
func reference(g *Generator, i0, j0 int64, nx, ny int) *grid.Grid {
	out := grid.New(nx, ny)
	Reference(g, out.Data, nx, ny, i0, j0)
	return out
}

// TestTiledMatchesDense pins the sparse tiled engine to one
// window-sized tile across all blender kinds and window offsets. On the
// direct engine both evaluate identical tap sums and blend arithmetic,
// so the bytes agree exactly.
func TestTiledMatchesDense(t *testing.T) {
	ks := threeKernels(t)
	offsets := []struct {
		i0, j0 int64
		nx, ny int
	}{
		{-24, -20, 48, 40},
		{0, 0, 50, 33},
		{-7, 13, 40, 48},
		{-100, -100, 30, 30}, // window far from every seam: single-component tiles
	}
	for name, blender := range tiledBlenders(t) {
		t.Run(name, func(t *testing.T) {
			dense := MustGenerator(ks, blender, 42)
			dense.TileSize = oneTile
			tiled := MustGenerator(ks, blender, 42)
			tiled.TileSize = 16
			for _, c := range offsets {
				a := dense.GenerateAt(c.i0, c.j0, c.nx, c.ny)
				b := tiled.GenerateAt(c.i0, c.j0, c.nx, c.ny)
				if d := a.MaxAbsDiff(b); d != 0 {
					t.Errorf("window (%d,%d,%dx%d): tiled deviates from one tile by %g",
						c.i0, c.j0, c.nx, c.ny, d)
				}
			}
		})
	}
}

// TestTiledMatchesReference pins the tiled engine to the literal
// eqn (46) evaluation on a small window.
func TestTiledMatchesReference(t *testing.T) {
	ks := threeKernels(t)
	blenders := tiledBlenders(t)
	names := make([]string, 0, len(blenders))
	for name := range blenders {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		blender := blenders[name]
		t.Run(name, func(t *testing.T) {
			tiled := MustGenerator(ks, blender, 7)
			tiled.TileSize = 8
			a := tiled.GenerateAt(-12, -10, 24, 20)
			b := reference(tiled, -12, -10, 24, 20)
			if d := a.MaxAbsDiff(b); d > 1e-9 {
				t.Errorf("tiled deviates from literal eqn (46) by %g", d)
			}
		})
	}
}

// TestAutoMatchesDense: whichever tiling RenderInto settles on for a
// window (varying masks, or one shared mask), the bytes match one
// window-sized tile exactly.
func TestAutoMatchesDense(t *testing.T) {
	ks := threeKernels(t)
	for name, blender := range tiledBlenders(t) {
		t.Run(name, func(t *testing.T) {
			auto := MustGenerator(ks, blender, 15)
			auto.TileSize = 16
			dense := MustGenerator(ks, blender, 15)
			dense.TileSize = oneTile
			a := auto.GenerateAt(-20, -16, 44, 36)
			b := dense.GenerateAt(-20, -16, 44, 36)
			if d := a.MaxAbsDiff(b); d != 0 {
				t.Errorf("auto deviates from one tile by %g", d)
			}
		})
	}
}

// TestSharedMaskDetectsUniformity: a uniform blender yields identical
// tile masks (the signal to render one window-sized tile); a
// seam-crossing plate scene does not.
func TestSharedMaskDetectsUniformity(t *testing.T) {
	ks := threeKernels(t)
	tiles := grid.Tiling(48, 48, 16, 16)

	uni := MustGenerator(ks, UniformBlender{M: 3, Index: 2}, 1)
	masks := uni.tileMasks(tiles, -24, -24)
	shared := sharedMask(masks)
	if shared == nil {
		t.Fatal("uniform blender should produce one shared mask")
	}
	if !shared[2] || shared[0] || shared[1] {
		t.Errorf("shared mask = %v, want only component 2", shared)
	}

	// Masks cover each tile's own samples, with no dilation by the
	// kernel reach: the edge tiles of this window lie inside one strip
	// each, while the tiles over x = ±8 straddle a transition band.
	seam := MustGenerator(ks, tiledBlenders(t)["plate"].(*PlateBlender), 1)
	wide := grid.Tiling(160, 48, 16, 16)
	if sharedMask(seam.tileMasks(wide, -80, -24)) != nil {
		t.Error("seam-crossing plate scene should not share one mask")
	}
}

// TestTiledSeamlessAcrossWindows: adjacent tiled windows agree on their
// overlap.
func TestTiledSeamlessAcrossWindows(t *testing.T) {
	ks := threeKernels(t)
	blender := mustPointBlender(t, []Point{
		{X: -20, Y: 0, Component: 0},
		{X: 20, Y: 0, Component: 1},
		{X: 0, Y: 30, Component: 2},
	}, 10, 3)
	gen := MustGenerator(ks, blender, 9)
	gen.TileSize = 16
	a := gen.GenerateAt(-32, -32, 64, 64)
	b := gen.GenerateAt(0, -32, 64, 64)
	for j := 0; j < 64; j++ {
		for i := 0; i < 32; i++ {
			if d := math.Abs(a.At(32+i, j) - b.At(i, j)); d > 1e-9 {
				t.Fatalf("overlap mismatch at (%d,%d): %g", i, j, d)
			}
		}
	}
}

// TestGenerateAtIntoReuse: rendering into a reused caller-owned grid
// must match the allocating API sample-for-sample and refresh the
// window metadata, both tiled and as one window-sized tile.
func TestGenerateAtIntoReuse(t *testing.T) {
	ks := threeKernels(t)
	blender := tiledBlenders(t)["plate"]
	for _, ts := range []int{16, oneTile} {
		gen := MustGenerator(ks, blender, 5)
		gen.TileSize = ts
		dst := grid.New(40, 36)
		for _, i0 := range []int64{-20, 4} {
			want := gen.GenerateAt(i0, -18, 40, 36)
			gen.GenerateAtInto(dst, i0, -18)
			if d := want.MaxAbsDiff(dst); d > 0 {
				t.Errorf("tile %d i0=%d: into deviates from allocating API by %g", ts, i0, d)
			}
			if !approx.Exact(dst.X0, want.X0) || !approx.Exact(dst.Y0, want.Y0) ||
				!approx.Exact(dst.Dx, want.Dx) || !approx.Exact(dst.Dy, want.Dy) {
				t.Errorf("tile %d i0=%d: metadata not refreshed", ts, i0)
			}
		}
	}
	gen := MustGenerator(ks, blender, 5)
	defer func() {
		if recover() == nil {
			t.Error("want panic on nil destination")
		}
	}()
	gen.GenerateAtInto(nil, 0, 0)
}

// TestWeightMapWorkerInvariance guards the parallelized WeightMap.
func TestWeightMapWorkerInvariance(t *testing.T) {
	ks := threeKernels(t)
	blender := tiledBlenders(t)["plate-circle"]
	g1 := MustGenerator(ks, blender, 3)
	g1.Workers = 1
	g8 := MustGenerator(ks, blender, 3)
	g8.Workers = 8
	for m := 0; m < 3; m++ {
		a := g1.WeightMap(m, -20, -20, 40, 40)
		b := g8.WeightMap(m, -20, -20, 40, 40)
		if d := a.MaxAbsDiff(b); d > 0 {
			t.Errorf("component %d: worker count changed weight map by %g", m, d)
		}
	}
}

// TestConcurrentGenerateAt is the regression test for the latent race
// the old fast path carried: it mutated the shared Workers field of the
// per-component convolution generators, so two concurrent GenerateAt
// calls on one Generator raced. Run under -race (scripts/check.sh
// does), tiled and as one window-sized tile, and check every goroutine
// sees identical output. The point scene's transition spans the window,
// so its 16-sample tiles share one mask with every component active and
// the window blends as one tile with both workers inside it.
func TestConcurrentGenerateAt(t *testing.T) {
	ks := threeKernels(t)
	wide := mustPointBlender(t, []Point{
		{X: -18, Y: -4, Component: 0},
		{X: 16, Y: 6, Component: 1},
		{X: 2, Y: 22, Component: 2},
	}, 200, 3)
	shared := sharedMask(MustGenerator(ks, wide, 77).tileMasks(grid.Tiling(40, 36, 16, 16), -16, -16))
	if shared == nil || slices.Contains(shared, false) {
		t.Fatalf("point scene mask %v, want one shared mask with every component active", shared)
	}
	for _, c := range []struct {
		name    string
		blender Blender
		tile    int
	}{
		{"plate/tiled", tiledBlenders(t)["plate"], 16},
		{"plate/one-tile", tiledBlenders(t)["plate"], oneTile},
		{"point/shared-mask", wide, 16},
	} {
		gen := MustGenerator(ks, c.blender, 77)
		gen.TileSize = c.tile
		gen.Workers = 2
		want := gen.GenerateAt(-16, -16, 40, 36)

		const goroutines = 8
		results := make([]*grid.Grid, goroutines)
		done := make(chan int, goroutines)
		for i := 0; i < goroutines; i++ {
			go func(i int) { //lint:ignore parpolicy stress test must hammer one generator from raw goroutines
				results[i] = gen.GenerateAt(-16, -16, 40, 36)
				done <- i
			}(i)
		}
		for i := 0; i < goroutines; i++ {
			<-done
		}
		for i, r := range results {
			if d := want.MaxAbsDiff(r); d > 0 {
				t.Errorf("%s: goroutine %d deviates by %g", c.name, i, d)
			}
		}
	}
}

// TestTiledRenderAllocs bounds the tiled engine's steady-state heap
// allocations at one per tile, at both precisions, on the 3-plate scene
// of BenchmarkInhomoFastVsReference/plates3/tiled (576², 32² tiles, 324
// tiles). Tile masks are written into one slab, plane views are values
// and single-worker tile renders build no closures; what remains is per
// band (plane fill, tile scheduling), not per tile.
func TestTiledRenderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by -race instrumentation")
	}
	inf := math.Inf(1)
	plates := mustPlateBlender(t, []Region{
		Rect{X0: -inf, Y0: -inf, X1: -96, Y1: inf, T: 4},
		Rect{X0: -96, Y0: -inf, X1: 96, Y1: inf, T: 4},
		Rect{X0: 96, Y0: -inf, X1: inf, Y1: inf, T: 4},
	})
	ks := []*convgen.Kernel{
		convgen.MustDesign(spectrum.MustGaussian(1, 1.5, 1.5), 1, 1, 6, 1e-3),
		convgen.MustDesign(spectrum.MustExponential(2, 1.5, 1.5), 1, 1, 6, 1e-3),
		convgen.MustDesign(spectrum.MustGaussian(0.5, 1.5, 1.5), 1, 1, 6, 1e-3),
	}
	const n, tile = 576, 32
	tiles := (n / tile) * (n / tile)
	gen := MustGenerator(ks, plates, 1)
	gen.TileSize = tile
	dst := grid.New(n, n)
	dst32 := grid.NewOf[float32](n, n)
	for name, render := range map[string]func(){
		"f64": func() { gen.GenerateAtInto(dst, -n/2, -n/2) },
		"f32": func() { gen.GenerateAtInto32(dst32, -n/2, -n/2) },
	} {
		render() // warm the arena pools
		if a := testing.AllocsPerRun(3, render); a > float64(tiles) {
			t.Errorf("%s: %.0f allocations per render, want at most one per tile (%d)", name, a, tiles)
		}
	}
}
