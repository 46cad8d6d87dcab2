package fft

import (
	"math"
	"math/cmplx"
	"testing"

	"roughsurface/internal/approx"
	"roughsurface/internal/rng"
)

func rand2D(nx, ny int, seed int64) []complex128 {
	g := rng.NewGaussian(uint64(seed))
	d := make([]complex128, nx*ny)
	for i := range d {
		d[i] = complex(g.Next(), g.Next())
	}
	return d
}

// naive2D computes the 2D DFT by two nested naive passes.
func naive2D(data []complex128, nx, ny int, inverse bool) []complex128 {
	out := append([]complex128(nil), data...)
	row := make([]complex128, nx)
	for iy := 0; iy < ny; iy++ {
		Naive1D(row, out[iy*nx:(iy+1)*nx], inverse)
		copy(out[iy*nx:(iy+1)*nx], row)
	}
	col := make([]complex128, ny)
	tmp := make([]complex128, ny)
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			col[iy] = out[iy*nx+ix]
		}
		Naive1D(tmp, col, inverse)
		for iy := 0; iy < ny; iy++ {
			out[iy*nx+ix] = tmp[iy]
		}
	}
	return out
}

func TestPlan2DMatchesNaive(t *testing.T) {
	cases := []struct{ nx, ny int }{{4, 4}, {8, 4}, {5, 7}, {16, 12}, {32, 32}}
	for _, c := range cases {
		p := MustPlan2D(c.nx, c.ny)
		src := rand2D(c.nx, c.ny, int64(c.nx*100+c.ny))
		got := append([]complex128(nil), src...)
		p.Forward(got)
		want := naive2D(src, c.nx, c.ny, false)
		if e := maxErr(got, want); e > 1e-8 {
			t.Errorf("%dx%d forward max err %g", c.nx, c.ny, e)
		}
	}
}

// TestPlan2DBluesteinColumns: column lengths without a radix-2 path
// run each lane of a column block through the one-dimensional
// Bluestein transform. 12×20 is one partial block, 40×20 two full
// blocks and a partial one; both directions agree with the naive DFT.
func TestPlan2DBluesteinColumns(t *testing.T) {
	for _, c := range []struct{ nx, ny int }{{12, 20}, {40, 20}} {
		p := MustPlan2D(c.nx, c.ny)
		if p.py.blu == nil {
			t.Fatalf("%dx%d: column plan is radix-2, want Bluestein", c.nx, c.ny)
		}
		src := rand2D(c.nx, c.ny, int64(c.nx*7+c.ny))
		for _, inverse := range []bool{false, true} {
			got := append([]complex128(nil), src...)
			if inverse {
				p.Inverse(got)
			} else {
				p.Forward(got)
			}
			if e := maxErr(got, naive2D(src, c.nx, c.ny, inverse)); e > 1e-9 {
				t.Errorf("%dx%d inverse=%v: max err %g", c.nx, c.ny, inverse, e)
			}
		}
	}
}

func TestPlan2DRoundTrip(t *testing.T) {
	cases := []struct{ nx, ny int }{{8, 8}, {16, 8}, {9, 15}, {64, 64}, {128, 64}}
	for _, c := range cases {
		p := MustPlan2D(c.nx, c.ny)
		src := rand2D(c.nx, c.ny, 42)
		data := append([]complex128(nil), src...)
		p.Forward(data)
		p.Inverse(data)
		if e := maxErr(data, src); e > 1e-9 {
			t.Errorf("%dx%d roundtrip max err %g", c.nx, c.ny, e)
		}
	}
}

func TestPlan2DSerialEqualsParallel(t *testing.T) {
	nx, ny := 64, 48
	src := rand2D(nx, ny, 7)

	serial := MustPlan2D(nx, ny)
	serial.Workers = 1
	a := append([]complex128(nil), src...)
	serial.Forward(a)

	parallel := MustPlan2D(nx, ny)
	parallel.Workers = 8
	b := append([]complex128(nil), src...)
	parallel.Forward(b)

	if e := maxErr(a, b); e > 0 {
		// Identical plan tables and identical arithmetic order per row and
		// column mean the results must match bit-for-bit.
		t.Errorf("parallel result differs from serial by %g", e)
	}
}

func TestPlan2DSeparableTone(t *testing.T) {
	nx, ny := 32, 16
	kx, ky := 3, 5
	p := MustPlan2D(nx, ny)
	data := make([]complex128, nx*ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			ph := 2 * math.Pi * (float64(kx*ix)/float64(nx) + float64(ky*iy)/float64(ny))
			s, c := math.Sincos(ph)
			data[iy*nx+ix] = complex(c, s)
		}
	}
	p.Forward(data)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			want := complex128(0)
			if ix == kx && iy == ky {
				want = complex(float64(nx*ny), 0)
			}
			if cmplx.Abs(data[iy*nx+ix]-want) > 1e-8 {
				t.Fatalf("bin (%d,%d): got %v want %v", ix, iy, data[iy*nx+ix], want)
			}
		}
	}
}

func TestShift2DInvolutionEvenSizes(t *testing.T) {
	nx, ny := 8, 6
	src := rand2D(nx, ny, 3)
	once := make([]complex128, nx*ny)
	twice := make([]complex128, nx*ny)
	Shift2D(once, src, nx, ny)
	Shift2D(twice, once, nx, ny)
	if e := maxErr(twice, src); e > 0 {
		t.Errorf("Shift2D twice should be identity on even sizes, err %g", e)
	}
	if !approx.ExactC(once[(ny/2)*nx+nx/2], src[0]) {
		t.Error("Shift2D did not move bin (0,0) to the center")
	}
}

func TestShiftReal2DMatchesComplex(t *testing.T) {
	nx, ny := 6, 10
	srcR := make([]float64, nx*ny)
	srcC := make([]complex128, nx*ny)
	g := rng.NewGaussian(11)
	for i := range srcR {
		srcR[i] = g.Next()
		srcC[i] = complex(srcR[i], 0)
	}
	dstR := make([]float64, nx*ny)
	dstC := make([]complex128, nx*ny)
	ShiftReal2D(dstR, srcR, nx, ny)
	Shift2D(dstC, srcC, nx, ny)
	for i := range dstR {
		if !approx.Exact(dstR[i], real(dstC[i])) {
			t.Fatalf("mismatch at %d", i)
		}
	}
}
