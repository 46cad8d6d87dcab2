package convgen_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"roughsurface/internal/convgen"
	"roughsurface/internal/figures"
)

// sha hashes samples little-endian, row-major, at their own width — the
// encoding the figure and tile pins use.
func sha(t *testing.T, samples any) string {
	t.Helper()
	h := sha256.New()
	if err := binary.Write(h, binary.LittleEndian, samples); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFFTEnginePinnedBytes pins the FFT engine's output bytes on amd64
// (like the golden tile) with Figure 1's cl=80 component, whose 231²
// kernel sends even a 64² tile to the FFT engine: one tile-sized
// window and one full non-square window. Refactors of the transforms
// and the padded workspace must leave these bytes alone.
func TestFFTEnginePinnedBytes(t *testing.T) {
	comps, err := figures.Figure1(figures.Size, 1).Scene.Components()
	if err != nil {
		t.Fatal(err)
	}
	gen := convgen.NewGenerator(comps.Kernels[2], 1)
	cases := []struct {
		name   string
		i0, j0 int64
		nx, ny int
		want   string
	}{
		{"tile-64", -32, -32, 64, 64, "81458a2da03fe0104350fe4c158f1a2125df0e56359da115b3b4e62ca6094050"},
		{"window-192x160", -70, 33, 192, 160, "493344cddc8fe53fd66146c0aeff14448b5877167170647fda68eec64bd984e3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if e := gen.EngineFor(c.nx, c.ny); e != convgen.EngineFFT {
				t.Fatalf("engine %v, want the FFT engine", e)
			}
			got := sha(t, gen.GenerateAt(c.i0, c.j0, c.nx, c.ny).Data)
			if runtime.GOARCH != "amd64" {
				t.Skipf("bytes pinned on amd64 only; got %s", got)
			}
			if got != c.want {
				t.Errorf("sha256 %s, want %s", got, c.want)
			}
		})
	}
}

// TestFFTEnginePinnedBlocks pins an FFT-engine render whose pad is not
// square and whose column pass ends in a partial block: Figure 3's 97²
// kernel over a 200×40 window pads to 512×256, so the half-spectrum
// has 257 columns, sixteen full blocks and a last one of a single
// column. Both render precisions are pinned on amd64, and every worker
// count gives the same bytes.
func TestFFTEnginePinnedBlocks(t *testing.T) {
	comps, err := figures.Figure3(figures.Size, 1).Scene.Components()
	if err != nil {
		t.Fatal(err)
	}
	gen := convgen.NewGenerator(comps.Kernels[1], 1)
	gen.Engine = convgen.EngineFFT
	const i0, j0, nx, ny = -57, 21, 200, 40
	for _, workers := range []int{1, 3} {
		d64 := make([]float64, nx*ny)
		gen.GenerateAtInto(d64, nx, i0, j0, nx, ny, workers)
		d32 := make([]float32, nx*ny)
		gen.GenerateAtInto32(d32, nx, i0, j0, nx, ny, workers)
		for _, c := range []struct {
			prec      string
			got, want string
		}{
			{"f64", sha(t, d64), "d9290ac68458d9640abf0c6c18d9eee864e7c0dd7e7e1f9408af55a5e6b49ff7"},
			{"f32", sha(t, d32), "64ae462e69d5aa866b8c6aff6b118982d098c24fc99b6450aac99d9d6113e93b"},
		} {
			if runtime.GOARCH != "amd64" {
				t.Skipf("bytes pinned on amd64 only; got %s", c.got)
			}
			if c.got != c.want {
				t.Errorf("%s workers=%d: sha256 %s, want %s", c.prec, workers, c.got, c.want)
			}
		}
	}
}
