package inhomo_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"roughsurface/internal/convgen"
	"roughsurface/internal/core"
	"roughsurface/internal/figures"
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
