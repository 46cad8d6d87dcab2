package fft

import (
	"fmt"
	"math"
	"testing"

	"roughsurface/internal/approx"
	"roughsurface/internal/rng"
)

// realSeq returns n deterministic N(0,1) samples.
func realSeq(n int, seed uint64) []float64 {
	g := rng.NewGaussian(seed)
	s := make([]float64, n)
	g.Fill(s)
	return s
}

// sizes1D covers the packed path (powers of two), the Bluestein
// fallback (composite and prime), odd lengths, and the degenerate edges.
var sizes1D = []int{1, 2, 4, 8, 16, 256, 1024, 3, 5, 6, 7, 12, 15, 100, 243, 1000}

func TestForwardRealMatchesComplex(t *testing.T) {
	for _, n := range sizes1D {
		src := realSeq(n, uint64(n))
		p := MustPlan(n)

		got := make([]complex128, p.HalfLen())
		p.ForwardReal(got, src)

		want := make([]complex128, n)
		for i, v := range src {
			want[i] = complex(v, 0)
		}
		p.Forward(want, want)

		if e := maxErr(got, want[:p.HalfLen()]); e > 1e-10 {
			t.Errorf("n=%d: half-spectrum err %g vs complex path", n, e)
		}
	}
}

func TestInverseRealRoundTrip(t *testing.T) {
	for _, n := range sizes1D {
		src := realSeq(n, uint64(2*n+1))
		p := MustPlan(n)

		spec := make([]complex128, p.HalfLen())
		p.ForwardReal(spec, src)
		got := make([]float64, n)
		p.InverseRealTo(got, spec)

		var e float64
		for i := range src {
			if d := math.Abs(got[i] - src[i]); d > e {
				e = d
			}
		}
		if e > 1e-10 {
			t.Errorf("n=%d: round-trip err %g", n, e)
		}
	}
}

func TestInverseRealUnscaledMatchesComplex(t *testing.T) {
	for _, n := range sizes1D {
		p := MustPlan(n)
		// A Hermitian half-spectrum with real self-conjugate bins.
		g := rng.NewGaussian(uint64(3*n + 7))
		spec := make([]complex128, p.HalfLen())
		for k := range spec {
			if k == 0 || 2*k == n {
				spec[k] = complex(g.Next(), 0)
			} else {
				spec[k] = complex(g.Next(), g.Next())
			}
		}

		// Reference: Hermitian extension through the complex plan.
		full := make([]complex128, n)
		copy(full, spec)
		for k := 1; 2*k < n; k++ {
			full[n-k] = complex(real(spec[k]), -imag(spec[k]))
		}
		want := make([]complex128, n)
		p.InverseUnscaled(want, full)

		got := make([]float64, n)
		p.InverseRealUnscaledTo(got, spec)
		var e float64
		for i := range got {
			if d := math.Abs(got[i] - real(want[i])); d > e {
				e = d
			}
			if d := math.Abs(imag(want[i])); d > 1e-9 {
				t.Fatalf("n=%d: reference inverse not real (%g)", n, d)
			}
		}
		if e > 1e-10*float64(n) {
			t.Errorf("n=%d: unscaled inverse err %g", n, e)
		}
	}
}

var sizes2D = []struct{ nx, ny int }{
	{4, 4}, {8, 8}, {16, 8}, {64, 32}, {256, 256},
	{6, 5}, {5, 7}, {12, 10}, {15, 16}, {100, 3}, {1, 8}, {8, 1},
}

func TestForwardReal2DMatchesComplex(t *testing.T) {
	for _, c := range sizes2D {
		n := c.nx * c.ny
		src := realSeq(n, uint64(n+13))
		p := MustPlan2D(c.nx, c.ny)
		hx := p.HalfNx()

		got := make([]complex128, hx*c.ny)
		p.ForwardReal(got, src)

		want := make([]complex128, n)
		for i, v := range src {
			want[i] = complex(v, 0)
		}
		p.Forward(want)

		var e float64
		for ky := 0; ky < c.ny; ky++ {
			for kx := 0; kx < hx; kx++ {
				d := got[ky*hx+kx] - want[ky*c.nx+kx]
				if a := math.Hypot(real(d), imag(d)); a > e {
					e = a
				}
			}
		}
		if e > 1e-10*float64(n) {
			t.Errorf("%dx%d: 2D half-spectrum err %g", c.nx, c.ny, e)
		}
	}
}

func TestInverseReal2DRoundTrip(t *testing.T) {
	for _, c := range sizes2D {
		n := c.nx * c.ny
		src := realSeq(n, uint64(2*n+3))
		p := MustPlan2D(c.nx, c.ny)

		spec := make([]complex128, p.HalfNx()*c.ny)
		p.ForwardReal(spec, src)
		got := make([]float64, n)
		p.InverseRealTo(got, spec)

		var e float64
		for i := range src {
			if d := math.Abs(got[i] - src[i]); d > e {
				e = d
			}
		}
		if e > 1e-10 {
			t.Errorf("%dx%d: 2D round-trip err %g", c.nx, c.ny, e)
		}
	}
}

// TestInverseRealUnscaled2DMatchesComplex drives the unscaled real
// inverse with a synthetic Hermitian half-spectrum — the exact shape
// dftgen feeds it — and checks it against the complex route on the
// Hermitian extension.
func TestInverseRealUnscaled2DMatchesComplex(t *testing.T) {
	for _, c := range sizes2D {
		n := c.nx * c.ny
		p := MustPlan2D(c.nx, c.ny)
		hx := p.HalfNx()

		// Build a full Hermitian spectrum, then slice the half.
		full := make([]complex128, n)
		g := rng.NewGaussian(uint64(5*n + 1))
		for ky := 0; ky < c.ny; ky++ {
			ry := (c.ny - ky) % c.ny
			for kx := 0; kx < c.nx; kx++ {
				rx := (c.nx - kx) % c.nx
				i, j := ky*c.nx+kx, ry*c.nx+rx
				if i == j {
					full[i] = complex(g.Next(), 0)
				} else if i < j {
					v := complex(g.Next(), g.Next())
					full[i] = v
					full[j] = complex(real(v), -imag(v))
				}
			}
		}
		half := make([]complex128, hx*c.ny)
		for ky := 0; ky < c.ny; ky++ {
			copy(half[ky*hx:(ky+1)*hx], full[ky*c.nx:ky*c.nx+hx])
		}

		want := make([]complex128, n)
		copy(want, full)
		p.InverseUnscaled(want)

		got := make([]float64, n)
		p.InverseRealUnscaledTo(got, half)

		var e float64
		for i := range got {
			if d := math.Abs(got[i] - real(want[i])); d > e {
				e = d
			}
		}
		if e > 1e-10*float64(n) {
			t.Errorf("%dx%d: 2D unscaled inverse err %g", c.nx, c.ny, e)
		}
	}
}

// TestRowBoundedRealMatchesFull: on inputs whose rows at and beyond
// the bound are zero, the row-bounded forward equals ForwardReal value
// for value, and the row-bounded inverse writes exactly InverseRealTo's
// rows below the bound and leaves the rest of dst untouched.
func TestRowBoundedRealMatchesFull(t *testing.T) {
	for _, c := range []struct{ nx, ny int }{{64, 32}, {16, 8}, {12, 10}, {8, 1}, {1, 8}} {
		p := MustPlan2D(c.nx, c.ny)
		hx := p.HalfNx()
		for _, rows := range []int{1, c.ny / 2, c.ny - 1, c.ny} {
			if rows < 1 {
				continue
			}
			src := realSeq(c.nx*c.ny, uint64(c.nx*131+rows))
			clear(src[rows*c.nx:])
			want := make([]complex128, hx*c.ny)
			p.ForwardReal(want, src)
			got := make([]complex128, hx*c.ny)
			for i := range got {
				got[i] = complex(math.NaN(), math.NaN()) // stale workspace
			}
			p.forwardRealRows(got, src, rows)
			for i := range want {
				if !approx.ExactC(got[i], want[i]) {
					t.Fatalf("%dx%d rows=%d: forward bin %d = %v, want %v", c.nx, c.ny, rows, i, got[i], want[i])
				}
			}

			full := make([]float64, c.nx*c.ny)
			p.InverseRealTo(full, append([]complex128(nil), want...))
			part := make([]float64, c.nx*c.ny)
			for i := range part {
				part[i] = 7
			}
			p.inverseReal(part, want, 1/float64(c.nx*c.ny), rows)
			for i := range part {
				w := full[i]
				if i >= rows*c.nx {
					w = 7
				}
				if !approx.Exact(part[i], w) {
					t.Fatalf("%dx%d rows=%d: inverse sample %d = %v, want %v", c.nx, c.ny, rows, i, part[i], w)
				}
			}
		}
	}
}

func TestRowBoundPanicsOutOfRange(t *testing.T) {
	p := MustPlan2D(8, 4)
	for _, rows := range []int{-1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rows=%d: want panic", rows)
				}
			}()
			p.forwardRealRows(make([]complex128, 20), make([]float64, 32), rows)
		}()
	}
}

// TestCorrelateRealRowsMatchesUnfused: the fused correlate call equals
// the unfused sequence (row-bounded forward, multiply every bin by the
// kernel spectrum's conjugate, row-bounded inverse) value for value, at
// power-of-two sizes, Bluestein sizes and mixed ones, over several
// (inRows, outRows) pairs: once with full-size buffers where dst aliases
// src and the rows past outRows keep their old values, and once with
// buffers cut to the rows the call reads and writes.
func TestCorrelateRealRowsMatchesUnfused(t *testing.T) {
	for _, c := range []struct{ nx, ny int }{{64, 32}, {32, 64}, {16, 16}, {12, 10}, {8, 7}, {6, 1}, {1, 8}} {
		p := MustPlan2D(c.nx, c.ny)
		hx := p.HalfNx()
		kHat := make([]complex128, hx*c.ny)
		p.ForwardReal(kHat, realSeq(c.nx*c.ny, uint64(c.nx*7+c.ny)))
		kCols := p.ColumnMajor(kHat)
		for _, rows := range [][2]int{{c.ny, c.ny}, {c.ny, 1}, {1, c.ny}, {(c.ny + 1) / 2, c.ny / 2}, {c.ny - 1, c.ny - 1}, {0, c.ny}, {c.ny, 0}} {
			inRows, outRows := rows[0], rows[1]
			if inRows < 0 || outRows < 0 {
				continue
			}
			src := realSeq(c.nx*c.ny, uint64(c.nx*131+inRows*17+outRows))
			clear(src[inRows*c.nx:])
			spec := make([]complex128, hx*c.ny)
			p.forwardRealRows(spec, src, inRows)
			for i, k := range kHat {
				spec[i] *= complex(real(k), -imag(k))
			}
			want := make([]float64, c.nx*c.ny)
			p.inverseReal(want, spec, 1/float64(c.nx*c.ny), outRows)

			got := append([]float64(nil), src...)
			for i := inRows * c.nx; i < len(got); i++ {
				got[i] = math.NaN() // unread rows
			}
			work := make([]complex128, hx*c.ny)
			for i := range work {
				work[i] = complex(math.NaN(), math.NaN()) // stale workspace
			}
			p.CorrelateRealRows(got, got, kCols, work, inRows, outRows)
			// Row-bounded buffers, cut to exactly the rows the call
			// reads and writes, give the same values.
			short := make([]float64, outRows*c.nx)
			p.CorrelateRealRows(short, src[:inRows*c.nx:inRows*c.nx], kCols, make([]complex128, hx*max(inRows, outRows)), inRows, outRows)
			for i, v := range short {
				if !approx.Exact(v, want[i]) {
					t.Fatalf("%dx%d rows %d→%d, short buffers: sample %d = %v, want %v", c.nx, c.ny, inRows, outRows, i, v, want[i])
				}
			}
			for i := range want {
				w := want[i]
				if i >= outRows*c.nx {
					w = math.NaN()
					if i < inRows*c.nx {
						w = src[i]
					}
				}
				if !approx.Exact(got[i], w) && !(math.IsNaN(got[i]) && math.IsNaN(w)) {
					t.Fatalf("%dx%d rows %d→%d: sample %d = %v, want %v", c.nx, c.ny, inRows, outRows, i, got[i], w)
				}
			}
		}
	}
}

func TestCorrelateRealRowsPanics(t *testing.T) {
	p := MustPlan2D(8, 4)
	n, h := 32, p.HalfNx()*4
	for name, f := range map[string]func(){
		"inRows -1": func() {
			p.CorrelateRealRows(make([]float64, n), make([]float64, n), make([]complex128, h), make([]complex128, h), -1, 4)
		},
		"inRows 5": func() {
			p.CorrelateRealRows(make([]float64, n), make([]float64, n), make([]complex128, h), make([]complex128, h), 5, 4)
		},
		"outRows -1": func() {
			p.CorrelateRealRows(make([]float64, n), make([]float64, n), make([]complex128, h), make([]complex128, h), 4, -1)
		},
		"outRows 5": func() {
			p.CorrelateRealRows(make([]float64, n), make([]float64, n), make([]complex128, h), make([]complex128, h), 4, 5)
		},
		"short kHat": func() {
			p.CorrelateRealRows(make([]float64, n), make([]float64, n), make([]complex128, h-1), make([]complex128, h), 4, 4)
		},
		"short work": func() {
			p.CorrelateRealRows(make([]float64, n), make([]float64, n), make([]complex128, h), make([]complex128, h-1), 4, 4)
		},
		"short dst": func() {
			p.CorrelateRealRows(make([]float64, n-1), make([]float64, n), make([]complex128, h), make([]complex128, h), 4, 4)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			f()
		}()
	}
}

func TestForwardRealPanicsOnMismatch(t *testing.T) {
	p := MustPlan(8)
	defer func() {
		if recover() == nil {
			t.Error("want panic on short dst")
		}
	}()
	p.ForwardReal(make([]complex128, 4), make([]float64, 8))
}

func TestInverseReal2DPanicsOnMismatch(t *testing.T) {
	p := MustPlan2D(8, 4)
	defer func() {
		if recover() == nil {
			t.Error("want panic on short src")
		}
	}()
	p.InverseRealTo(make([]float64, 32), make([]complex128, 4))
}

func TestCachedPlan2DWorkersKeyed(t *testing.T) {
	a, err := CachedPlan2DWorkers(32, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CachedPlan2DWorkers(32, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same (nx, ny, workers) should share one plan")
	}
	if a.Workers != 2 {
		t.Errorf("Workers = %d, want 2", a.Workers)
	}
	c, err := CachedPlan2DWorkers(32, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different worker bounds must not share a plan")
	}
	d, err := CachedPlan2D(32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if d == a || d.Workers != 0 {
		t.Errorf("default-bound plan should be its own entry (Workers=%d)", d.Workers)
	}
}

func BenchmarkForwardReal1D(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(sizeName(n), func(b *testing.B) {
			p := MustPlan(n)
			src := realSeq(n, 1)
			dst := make([]complex128, p.HalfLen())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ForwardReal(dst, src)
			}
		})
	}
}

func BenchmarkForwardReal2D(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(sizeName(n), func(b *testing.B) {
			p := MustPlan2D(n, n)
			src := realSeq(n*n, 1)
			dst := make([]complex128, p.HalfNx()*n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ForwardReal(dst, src)
			}
		})
	}
}

func sizeName(n int) string { return fmt.Sprintf("n=%d", n) }
