package rng

import (
	"math"
	"testing"
	"testing/quick"

	"roughsurface/internal/approx"
	"roughsurface/internal/simd"
)

func TestSourceDeterministic(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestSourceSeedSensitivity(t *testing.T) {
	a := NewSource(1)
	b := NewSource(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical outputs from different seeds", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewSource(7)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestUniformMoments(t *testing.T) {
	s := NewSource(11)
	n := 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.Float64()
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean %g far from 0.5", mean)
	}
	variance := sum2/float64(n) - mean*mean
	if math.Abs(variance-1.0/12) > 0.003 {
		t.Errorf("uniform variance %g far from 1/12", variance)
	}
}

func TestGaussianMoments(t *testing.T) {
	g := NewGaussian(13)
	n := 200000
	var sum, sum2, sum3, sum4 float64
	for i := 0; i < n; i++ {
		v := g.Next()
		sum += v
		sum2 += v * v
		sum3 += v * v * v
		sum4 += v * v * v * v
	}
	fn := float64(n)
	mean := sum / fn
	variance := sum2/fn - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("Gaussian mean %g", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Gaussian variance %g", variance)
	}
	if skew := sum3 / fn; math.Abs(skew) > 0.05 {
		t.Errorf("Gaussian skewness %g", skew)
	}
	if kurt := sum4 / fn; math.Abs(kurt-3) > 0.1 {
		t.Errorf("Gaussian 4th moment %g, want 3", kurt)
	}
}

func TestGaussianTailProbability(t *testing.T) {
	g := NewGaussian(17)
	n := 100000
	beyond2 := 0
	for i := 0; i < n; i++ {
		if math.Abs(g.Next()) > 2 {
			beyond2++
		}
	}
	frac := float64(beyond2) / float64(n)
	// P(|Z| > 2) = 0.0455; allow generous sampling slack.
	if frac < 0.035 || frac > 0.056 {
		t.Errorf("P(|Z|>2) estimated %g, want about 0.0455", frac)
	}
}

func TestJumpProducesDisjointStreams(t *testing.T) {
	a := NewSource(99)
	b := NewSource(99)
	b.Jump()
	seen := make(map[uint64]bool, 2000)
	for i := 0; i < 1000; i++ {
		seen[a.Uint64()] = true
	}
	collisions := 0
	for i := 0; i < 1000; i++ {
		if seen[b.Uint64()] {
			collisions++
		}
	}
	if collisions > 0 {
		t.Errorf("%d collisions between jumped streams", collisions)
	}
}

func TestSplitChildrenDiffer(t *testing.T) {
	root := NewSource(5)
	c1 := root.Split()
	c2 := root.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Error("split children start identically")
	}
}

func TestFieldDeterministicAndOrderFree(t *testing.T) {
	f := NewField(123)
	a := f.At(1000, -500)
	b := f.At(-3, 7)
	if !approx.Exact(f.At(1000, -500), a) || !approx.Exact(f.At(-3, 7), b) {
		t.Error("Field.At is not a pure function")
	}
	// Same window, filled in two halves vs at once.
	whole := make([]float64, 8*8)
	f.FillRect(whole, 10, 20, 8, 8)
	top := make([]float64, 8*4)
	bot := make([]float64, 8*4)
	f.FillRect(top, 10, 20, 8, 4)
	f.FillRect(bot, 10, 24, 8, 4)
	for i := range top {
		if !approx.Exact(whole[i], top[i]) {
			t.Fatal("FillRect top half mismatch")
		}
		if !approx.Exact(whole[32+i], bot[i]) {
			t.Fatal("FillRect bottom half mismatch")
		}
	}
}

func TestFieldMoments(t *testing.T) {
	f := NewField(77)
	var sum, sum2 float64
	n := 0
	for j := int64(0); j < 400; j++ {
		for i := int64(0); i < 400; i++ {
			v := f.At(i, j)
			sum += v
			sum2 += v * v
			n++
		}
	}
	fn := float64(n)
	mean := sum / fn
	variance := sum2/fn - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("field mean %g", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("field variance %g", variance)
	}
}

func TestFieldSpatialDecorrelation(t *testing.T) {
	f := NewField(31)
	// Lag-1 autocorrelation in both axes should be ~0 for white noise.
	var c10, c01, v float64
	n := 300
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			x := f.At(int64(i), int64(j))
			v += x * x
			c10 += x * f.At(int64(i+1), int64(j))
			c01 += x * f.At(int64(i), int64(j+1))
		}
	}
	if r := c10 / v; math.Abs(r) > 0.01 {
		t.Errorf("lag (1,0) correlation %g", r)
	}
	if r := c01 / v; math.Abs(r) > 0.01 {
		t.Errorf("lag (0,1) correlation %g", r)
	}
}

func TestFieldSeedsIndependent(t *testing.T) {
	a := NewField(1)
	b := NewField(2)
	var dot, va, vb float64
	for i := int64(0); i < 10000; i++ {
		x, y := a.At(i, 0), b.At(i, 0)
		dot += x * y
		va += x * x
		vb += y * y
	}
	if r := dot / math.Sqrt(va*vb); math.Abs(r) > 0.03 {
		t.Errorf("cross-seed correlation %g", r)
	}
}

func TestQuickFieldPure(t *testing.T) {
	f := func(seed uint64, i, j int64) bool {
		fl := NewField(seed)
		v := fl.At(i, j)
		return approx.Exact(fl.At(i, j), v) && !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFillRectPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FillRect with wrong length should panic")
		}
	}()
	NewField(0).FillRect(make([]float64, 3), 0, 0, 2, 2)
}

func BenchmarkGaussianNext(b *testing.B) {
	g := NewGaussian(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}

func BenchmarkFieldAt(b *testing.B) {
	f := NewField(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = f.At(int64(i), int64(i>>8))
	}
}

// TestFillRowMatchesAt pins the batch fill to the per-sample definition
// bit for bit, including negative indices and uint64 wrap of the index
// mix.
func TestFillRowMatchesAt(t *testing.T) {
	f := NewField(0xfeedbeef)
	for _, c := range []struct {
		i0, j int64
		n     int
	}{{0, 0, 17}, {-9, 4, 32}, {1 << 40, -3, 8}, {-1 << 50, 1 << 33, 5}} {
		dst := make([]float64, c.n)
		f.FillRow(dst, c.i0, c.j)
		for m, got := range dst {
			want := f.At(c.i0+int64(m), c.j)
			if !approx.Exact(got, want) {
				t.Fatalf("FillRow(i0=%d, j=%d)[%d] = %g, At = %g", c.i0, c.j, m, got, want)
			}
		}
	}
}

// FuzzFillRowMatchesAt: for any seed, start, row and length 0…70,
// every kernel set's row is the length-1 definition At, sample by
// sample, at both precisions.
func FuzzFillRowMatchesAt(f *testing.F) {
	f.Add(uint64(1), int64(0), int64(0), uint8(17))
	f.Add(uint64(0xfeedbeef), int64(-9), int64(4), uint8(70))
	f.Add(uint64(7), int64(math.MaxInt64-30), int64(-1), uint8(64))
	f.Fuzz(func(t *testing.T, seed uint64, i0, j int64, n uint8) {
		n %= 71
		fl := NewField(seed)
		dst := make([]float64, n)
		dst32 := make([]float32, n)
		for _, k := range simd.FieldKernels() {
			k.Row64(dst, seed, i0, j)
			k.Row32(dst32, seed, i0, j)
			for m := range dst {
				want := fl.At(i0+int64(m), j)
				if !approx.Exact(dst[m], want) || math.Float32bits(dst32[m]) != math.Float32bits(float32(want)) {
					t.Fatalf("%s: row [%d] = %v / %v, At %v", k.Name(), m, dst[m], dst32[m], want)
				}
			}
		}
	})
}

// BenchmarkFieldFillRow times the noise fill of a 4096-sample row
// through every kernel set the host runs, at both precisions (the
// selected set is the last; Field.FillRow dispatches to it).
func BenchmarkFieldFillRow(b *testing.B) {
	const seed = 1
	dst := make([]float64, 4096)
	dst32 := make([]float32, len(dst))
	for _, k := range simd.FieldKernels() {
		for _, prec := range []string{"f64", "f32"} {
			b.Run(k.Name()+"/"+prec, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if prec == "f64" {
						k.Row64(dst, seed, 0, int64(i))
					} else {
						k.Row32(dst32, seed, 0, int64(i))
					}
				}
				b.ReportMetric(float64(len(dst))*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
			})
		}
	}
}
