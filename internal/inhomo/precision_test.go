package inhomo

import (
	"math"
	"testing"

	"roughsurface/internal/approx"
	"roughsurface/internal/grid"
)

// f32BlendTol gates the float32 render path against the float64
// reference: 1e-4 of the largest component σh (2.0 in threeKernels),
// the same budget as the convgen agreement gate (DESIGN.md §13). The
// blend adds one weight rounding and a single-precision accumulation
// over ≤3 terms per sample, both far below the convolution's own
// rounding noise.
const f32BlendTol = 1e-4 * 2.0

// TestInhomoGenerate32AgreesWithF64 drives every blender kind through
// the f32 path, tiled and as one window-sized tile, and checks
// per-sample agreement with the float64 render of the same
// configuration.
func TestInhomoGenerate32AgreesWithF64(t *testing.T) {
	ks := threeKernels(t)
	for name, blender := range tiledBlenders(t) {
		t.Run(name, func(t *testing.T) {
			for _, ts := range []int{16, oneTile} {
				g64 := MustGenerator(ks, blender, 42)
				g64.TileSize = ts
				g32 := MustGenerator(ks, blender, 42)
				g32.TileSize = ts
				const nx, ny = 48, 40
				want := g64.GenerateAt(-24, -20, nx, ny)
				got := g32.GenerateAt32(-24, -20, nx, ny)
				if !approx.Exact(got.Dx, want.Dx) || !approx.Exact(got.X0, want.X0) ||
					!approx.Exact(got.Y0, want.Y0) {
					t.Fatalf("tile %d: metadata mismatch: %+v", ts, got)
				}
				for i, v := range got.Data {
					if d := math.Abs(float64(v) - want.Data[i]); d > f32BlendTol {
						t.Fatalf("tile %d: sample %d f32=%g f64=%g (|Δ|=%.3g > %.3g)",
							ts, i, v, want.Data[i], d, f32BlendTol)
					}
				}
			}
		})
	}
}

// TestInhomoReference32 pins the f32 view of the literal eqn (46)
// evaluator to the f64 reference rounded once per sample — Reference
// narrows rather than re-deriving, so agreement is exact.
func TestInhomoReference32(t *testing.T) {
	ks := threeKernels(t)
	blender := tiledBlenders(t)["plate"]
	ref := MustGenerator(ks, blender, 7)
	want := reference(ref, -6, -5, 12, 10)
	got := make([]float32, 12*10)
	Reference(ref, got, 12, 10, -6, -5)
	for i, v := range got {
		if !approx.Exact(float64(v), float64(float32(want.Data[i]))) {
			t.Fatalf("sample %d = %g, want narrow(%g)", i, v, want.Data[i])
		}
	}
}

// TestGenerateAtInto32Reuse: rendering two windows through one reused
// grid must equal fresh allocations (pooled scratch reset correctly)
// and overwrite the metadata each time.
func TestGenerateAtInto32Reuse(t *testing.T) {
	ks := threeKernels(t)
	g := MustGenerator(ks, tiledBlenders(t)["plate-circle"], 9)
	g.TileSize = 16
	out := grid.New32(40, 32)
	for _, origin := range []struct{ i0, j0 int64 }{{-20, -16}, {5, 9}, {-20, -16}} {
		g.GenerateAtInto32(out, origin.i0, origin.j0)
		want := g.GenerateAt32(origin.i0, origin.j0, 40, 32)
		if !approx.Exact(out.X0, want.X0) || !approx.Exact(out.Y0, want.Y0) {
			t.Fatalf("origin (%d,%d): metadata not overwritten: %+v", origin.i0, origin.j0, out)
		}
		for i, v := range out.Data {
			if !approx.Exact(float64(v), float64(want.Data[i])) {
				t.Fatalf("origin (%d,%d): sample %d = %g, want %g", origin.i0, origin.j0, i, v, want.Data[i])
			}
		}
	}
}

func TestGenerateAtInto32Panics(t *testing.T) {
	g := MustGenerator(threeKernels(t), UniformBlender{M: 3}, 1)
	for name, fn := range map[string]func(){
		"nil grid":   func() { g.GenerateAtInto32(nil, 0, 0) },
		"empty grid": func() { g.GenerateAtInto32(&grid.Grid32{}, 0, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			fn()
		})
	}
}
