package inhomo_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"roughsurface/internal/convgen"
	"roughsurface/internal/core"
	"roughsurface/internal/figures"
	"roughsurface/internal/grid"
	"roughsurface/internal/inhomo"
)

// fixturePlate is the service tests' plate scene: a half-plane and a
// circle with 4-unit transitions, both on small direct-engine kernels.
const fixturePlate = `{"nx":64,"ny":64,"method":"plate","regions":[
	  {"shape":"rect","x1":0,"t":4,"spectrum":{"family":"gaussian","h":1,"cl":8}},
	  {"shape":"circle","cx":16,"cy":0,"r":20,"t":4,"spectrum":{"family":"exponential","h":2,"cl":5}}]}`

// sha hashes samples little-endian, row-major, at their own width —
// the encoding the figure and tile pins use.
func sha(t *testing.T, samples any) string {
	t.Helper()
	h := sha256.New()
	if err := binary.Write(h, binary.LittleEndian, samples); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func components(t *testing.T, sc core.Scene) *core.Components {
	t.Helper()
	c, err := sc.Components()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func checkPinned(t *testing.T, got, want string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("bytes pinned on amd64 only; got %s", got)
	}
	if got != want {
		t.Errorf("sha256 %s, want %s", got, want)
	}
}

// TestTiledPlatePinnedBytes pins a Figure 1 window across the quadrant
// seams on amd64. Its tiles mix direct components (cl = 40, 60) with
// the FFT-engine cl = 80 component, and its outer tiles sit past the
// transition bands, so mask and transform changes both show here. Its
// tile masks vary, so EngineAuto renders it tiled; the test checks
// that first.
func TestTiledPlatePinnedBytes(t *testing.T) {
	c := components(t, figures.Figure1(figures.Size, 1).Scene)
	engines := map[convgen.Engine]bool{}
	for _, k := range c.Kernels {
		engines[convgen.NewGenerator(k, 1).EngineFor(64, 64)] = true
	}
	if !engines[convgen.EngineDirect] || !engines[convgen.EngineFFT] {
		t.Fatalf("tile engines %v, want both direct and FFT", engines)
	}
	gen := inhomo.MustGenerator(c.Kernels, c.Blender, 1)
	if masksUniform(inhomo.TileMasks(gen, -192, -192, 384, 384)) {
		t.Fatal("window masks are uniform; want the tiled path")
	}
	checkPinned(t, sha(t, gen.GenerateAt(-192, -192, 384, 384).Data),
		"db8378a60986ff3e0b1f3e6fbdcc678d4dea5544304b5952c9d481b78a4c621e")
}

// TestPlateFixture32PinnedBytes pins f32 tiles of the plate fixture on
// amd64: one straddling the half-plane seam and the circle, and one just
// beside the seam, whose exact mask holds the half-plane component
// alone.
func TestPlateFixture32PinnedBytes(t *testing.T) {
	sc, err := core.ParseScene([]byte(fixturePlate))
	if err != nil {
		t.Fatal(err)
	}
	c := components(t, sc.Normalized())
	gen := inhomo.MustGenerator(c.Kernels, c.Blender, 1)
	for _, tc := range []struct {
		name   string
		i0, j0 int64
		want   string
	}{
		{"seam", -32, -32, "fb381be8c2c720edb291b906e277591ed1e36adcfbb1807d218bf5d460844e93"},
		{"beside-seam", -80, -32, "77f434842b000407275bd2414492df0f962fcfbdc89a22ddff1ff031c13a2b32"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkPinned(t, sha(t, gen.GenerateAt32(tc.i0, tc.j0, 64, 64).Data), tc.want)
		})
	}
}

// TestFigureActiveTileComponents counts the (tile, component) pairs
// the exact support masks leave active over the full Figure 1 and 3
// windows, without rendering: 324 of 4·256 and 328 of 2·256.
func TestFigureActiveTileComponents(t *testing.T) {
	for _, tc := range []struct {
		fig  figures.Figure
		want int
	}{
		{figures.Figure1(figures.Size, 1), 324},
		{figures.Figure3(figures.Size, 1), 328},
	} {
		sc := tc.fig.Scene
		c := components(t, sc)
		gen := inhomo.MustGenerator(c.Kernels, c.Blender, sc.Seed)
		got := 0
		for _, mask := range inhomo.TileMasks(gen, -int64(sc.Nx/2), -int64(sc.Ny/2), sc.Nx, sc.Ny) {
			for _, on := range mask {
				if on {
					got++
				}
			}
		}
		if got != tc.want {
			t.Errorf("figure %d: %d active tile-components, want %d", tc.fig.ID, got, tc.want)
		}
	}
}

// masksUniform reports whether every tile mask equals the first.
func masksUniform(masks [][]bool) bool {
	for _, m := range masks[1:] {
		for i := range m {
			if m[i] != masks[0][i] {
				return false
			}
		}
	}
	return true
}

// fixturePoint is the service tests' point scene: two Gaussian
// components, 40 units apart, with a 10-unit transition.
const fixturePoint = `{"nx":64,"ny":64,"method":"point","transition_t":10,"points":[
	  {"x":-20,"y":0,"spectrum":{"family":"gaussian","h":1,"cl":8}},
	  {"x":20,"y":0,"spectrum":{"family":"gaussian","h":2.5,"cl":8}}]}`

// TestFixtureWindow64PinnedBytes pins f64 256² windows of the plate
// and point fixtures on amd64, the cold-mixed tile shapes whose
// components are all direct at the window size and so read the shared
// noise plane: the plate window crosses the seam and renders tiled,
// the point window has uniform masks and renders dense.
func TestFixtureWindow64PinnedBytes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		doc   string
		tiled bool
		want  string
	}{
		{"plate", fixturePlate, true, "58637ffb77629aee32b2a9e0af624e98e4d7e19e892840e44d2dfbcb15571a41"},
		{"point", fixturePoint, false, "6e6e766bbdc4ae2d4eab3ea4bb936ccf07935d99ede0755828e7e56e62359230"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := core.ParseScene([]byte(tc.doc))
			if err != nil {
				t.Fatal(err)
			}
			c := components(t, sc.Normalized())
			for m, k := range c.Kernels {
				if e := convgen.NewGenerator(k, 1).EngineFor(256, 256); e != convgen.EngineDirect {
					t.Fatalf("component %d engine %v at 256², want direct", m, e)
				}
			}
			gen := inhomo.MustGenerator(c.Kernels, c.Blender, 1)
			if tiled := !masksUniform(inhomo.TileMasks(gen, -128, -128, 256, 256)); tiled != tc.tiled {
				t.Fatalf("tiled path %v, want %v", tiled, tc.tiled)
			}
			checkPinned(t, sha(t, gen.GenerateAt(-128, -128, 256, 256).Data), tc.want)
		})
	}
}

// TestFFTSoleTile32MatchesHomogeneous: an f32 tile whose only active
// component picks the FFT engine at the tile size renders exactly as
// that component's homogeneous f32 surface, bit for bit. Figure 1's
// cl = 80 component (a 231² kernel) is FFT on a 64² tile, so the tiled
// engine must run it self-contained rather than direct off a noise
// plane.
func TestFFTSoleTile32MatchesHomogeneous(t *testing.T) {
	const i0, j0, n = -192, -192, 256
	sc := figures.Figure1(figures.Size, 1).Scene
	c := components(t, sc)
	gen := inhomo.MustGenerator(c.Kernels, c.Blender, sc.Seed)
	masks := inhomo.TileMasks(gen, i0, j0, n, n)
	if masksUniform(masks) {
		t.Fatal("window masks are uniform; want the tiled path")
	}
	out := gen.GenerateAt32(i0, j0, n, n)
	checked := 0
	for ti, tile := range grid.Tiling(n, n, 64, 64) {
		sole := -1
		for m, on := range masks[ti] {
			if on {
				if sole >= 0 {
					sole = -2
					break
				}
				sole = m
			}
		}
		if sole < 0 {
			continue
		}
		conv := convgen.NewGenerator(c.Kernels[sole], sc.Seed)
		if conv.EngineFor(tile.Nx, tile.Ny) != convgen.EngineFFT {
			continue
		}
		want := conv.GenerateAt32(i0+int64(tile.X0), j0+int64(tile.Y0), tile.Nx, tile.Ny)
		for j := 0; j < tile.Ny; j++ {
			for i := 0; i < tile.Nx; i++ {
				got := out.At(tile.X0+i, tile.Y0+j)
				if w := want.At(i, j); math.Float32bits(got) != math.Float32bits(w) {
					t.Fatalf("tile %d sample (%d,%d): %g, want %g", ti, i, j, got, w)
				}
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no tile with a sole FFT-engine component")
	}
}
