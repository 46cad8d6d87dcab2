package inhomo

import (
	"math"
	"testing"

	"roughsurface/internal/approx"
	"roughsurface/internal/rng"
)

// TestNoisePlaneSlides: cover holds exactly the field rows a band of
// output rows reads, moves the rows the next band shares with the last
// instead of refilling them, and keeps at most a band plus its halo
// resident.
func TestNoisePlaneSlides(t *testing.T) {
	ks := threeKernels(t)
	const seed = 7
	g := MustGenerator(ks, UniformBlender{M: len(ks)}, seed)
	const i0, j0, nx = -30, 17, 50
	p := newNoisePlane(g, i0, nx, []bool{true, true, true})
	if p.halo < 2 {
		t.Fatalf("halo %d: want a nontrivial halo", p.halo)
	}
	band := p.halo + 3 // a band covers the halo, as generateTiled's do
	field := rng.NewField(seed)
	row := make([]float64, p.pnx)
	const sentinel = 1e300 // no field sample is this large
	for y0 := 0; y0 < 3*band; y0 += band {
		p.cover(g, j0, y0, y0+band)
		if p.rows != band+p.halo || len(p.data) != p.rows*p.pnx || cap(p.data) != p.rows*p.pnx {
			t.Fatalf("band %d: %d rows, len %d, cap %d; want %d rows of %d", y0, p.rows, len(p.data), cap(p.data), band+p.halo, p.pnx)
		}
		if want := int64(j0 + y0 - p.top); p.pj0 != want {
			t.Fatalf("band %d: plane starts at row %d, want %d", y0, p.pj0, want)
		}
		for r := 0; r < p.rows; r++ {
			field.FillRow(row, p.pi0, p.pj0+int64(r))
			got := p.data[r*p.pnx : (r+1)*p.pnx]
			i := 0
			if y0 > 0 && r < p.halo {
				// Carried over from the last band, sentinel and all.
				if !approx.Exact(got[0], sentinel) {
					t.Fatalf("band %d row %d: refilled, want it moved from the last band", y0, r)
				}
				i = 1
			}
			for ; i < len(got); i++ {
				if math.Float64bits(got[i]) != math.Float64bits(row[i]) {
					t.Fatalf("band %d row %d sample %d = %v, field %v", y0, r, i, got[i], row[i])
				}
			}
		}
		// Mark the rows the next band shares, so the test sees whether
		// they are moved or refilled.
		for r := band; r < p.rows; r++ {
			p.data[r*p.pnx] = sentinel
		}
	}
}
