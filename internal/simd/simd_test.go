package simd

import (
	"fmt"
	"math"
	"testing"

	"roughsurface/internal/approx"
)

// testLengths exercises every tail combination of the unrolled and
// assembly kernels: below one lane, every remainder class mod 16, and a
// few long vectors.
var testLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 23, 24, 31, 32, 33, 48, 63, 64, 100, 255, 1024}

// testSource is a SplitMix64 stream for test inputs. It is local
// because the rng package imports simd for its noise kernel.
type testSource struct{ state uint64 }

func newTestSource(seed uint64) *testSource { return &testSource{seed} }

// Uint64 returns the next SplitMix64 output.
func (s *testSource) Uint64() uint64 {
	s.state += fieldStepI
	return splitmixFinal(s.state)
}

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (s *testSource) Float64() float64 { return float64(s.Uint64()>>11) / (1 << 53) }

func fill64(src *testSource, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = src.Float64()*4 - 2
	}
	return v
}

// axpyRef is the literal one-line-per-element reference both precisions
// are checked against.
func axpyRef[F Float](alpha F, x, y []F) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// TestAxpyMatchesReference checks the dispatched kernels (assembly when
// the build selected them) against the scalar reference — exact
// equality on amd64 and every noasm build, where no path fuses;
// tolerance on arm64, where both FMLA and the compiled reference fuse
// but tails may differ in fusing.
func TestAxpyMatchesReference(t *testing.T) {
	src := newTestSource(7)
	for _, n := range testLengths {
		x64 := fill64(src, n)
		y64 := fill64(src, n)
		want64 := append([]float64(nil), y64...)
		const alpha = 1.375 // exact in both precisions
		axpyRef(alpha, x64, want64)
		Axpy64(alpha, x64, y64)
		for i := range y64 {
			if math.Abs(y64[i]-want64[i]) > 1e-13*(1+math.Abs(want64[i])) {
				t.Fatalf("Axpy64 n=%d impl=%s: [%d] = %g, want %g", n, Impl(), i, y64[i], want64[i])
			}
		}

		x32 := make([]float32, n)
		y32 := make([]float32, n)
		narrow(x32, x64)
		narrow(y32, fill64(src, n))
		want32 := append([]float32(nil), y32...)
		axpyRef(float32(alpha), x32, want32)
		Axpy32(alpha, x32, y32)
		for i := range y32 {
			if math.Abs(float64(y32[i]-want32[i])) > 1e-5*(1+math.Abs(float64(want32[i]))) {
				t.Fatalf("Axpy32 n=%d impl=%s: [%d] = %g, want %g", n, Impl(), i, y32[i], want32[i])
			}
		}
	}
}

// exactKernels is every kernel set the host runs that promises bit
// equality with the portable loops: all but NEON, whose FMLA fuses
// where the portable axpy may not.
func exactKernels() []kernelSet {
	var ks []kernelSet
	for _, k := range kernels {
		if k.name != "neon" {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestAxpyBitExactVsFallback pins the DESIGN §13 invariant on amd64:
// the VEX kernels use separate multiply and add, so they produce the
// same bytes as the pure-Go unrolled fallback at both precisions. Each
// kernel set the host runs is called directly, not only the dispatched
// one.
func TestAxpyBitExactVsFallback(t *testing.T) {
	for _, k := range exactKernels() {
		src := newTestSource(11)
		for _, n := range testLengths {
			x64 := fill64(src, n)
			y64a := fill64(src, n)
			y64b := append([]float64(nil), y64a...)
			alpha := src.Float64()*2 - 1
			k.axpy64(alpha, x64, y64a)
			axpyGeneric64(alpha, x64, y64b)
			for i := range y64a {
				if !approx.Exact(y64a[i], y64b[i]) {
					t.Fatalf("%s axpy64 n=%d: [%d] = %x, fallback %x", k.name, n, i, y64a[i], y64b[i])
				}
			}

			x32 := make([]float32, n)
			narrow(x32, x64)
			y32a := make([]float32, n)
			narrow(y32a, fill64(src, n))
			y32b := append([]float32(nil), y32a...)
			k.axpy32(float32(alpha), x32, y32a)
			axpyGeneric32(float32(alpha), x32, y32b)
			for i := range y32a {
				if !approx.Exact(float64(y32a[i]), float64(y32b[i])) {
					t.Fatalf("%s axpy32 n=%d: [%d] = %x, fallback %x", k.name, n, i, y32a[i], y32b[i])
				}
			}
		}
	}
}

// TestAxpyGenericDispatch covers the type-switch wrapper and defined
// float types (the generic fallthrough arm).
func TestAxpyGenericDispatch(t *testing.T) {
	type myFloat float64
	x := []myFloat{1, 2, 3}
	y := []myFloat{10, 20, 30}
	Axpy(myFloat(2), x, y)
	want := []myFloat{12, 24, 36}
	for i := range y {
		if !approx.Exact(float64(y[i]), float64(want[i])) {
			t.Fatalf("Axpy[myFloat][%d] = %g, want %g", i, y[i], want[i])
		}
	}

	x32 := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	y32 := make([]float32, 9)
	Axpy(float32(0.5), x32, y32)
	for i := range y32 {
		if !approx.Exact(float64(y32[i]), float64(x32[i])/2) {
			t.Fatalf("Axpy[float32][%d] = %g", i, y32[i])
		}
	}
}

func TestAxpyLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Axpy32": func() { Axpy32(1, make([]float32, 3), make([]float32, 4)) },
		"Axpy64": func() { Axpy64(1, make([]float64, 4), make([]float64, 3)) },
		"Axpy":   func() { Axpy(1.0, make([]float64, 1), make([]float64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on length mismatch", name)
				}
			}()
			f()
		}()
	}
}

// narrow rounds src to float32 into dst, the f32 pipeline's one
// narrowing step.
func narrow(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// macRowRef is the literal per-sample reference for the fused MAC row.
func macRowRef[F Float](taps, noise, dst []F) {
	for i := range dst {
		acc := dst[i]
		for a, t := range taps {
			acc += t * noise[a+i]
		}
		dst[i] = acc
	}
}

// TestMacRowMatchesReference checks the dispatched fused-row kernels
// against the literal per-sample sum for every tail class and several
// tap-row lengths (including the degenerate empty tap row).
func TestMacRowMatchesReference(t *testing.T) {
	src := newTestSource(13)
	for _, taps := range []int{0, 1, 2, 5, 11, 16} {
		for _, n := range testLengths {
			t64 := fill64(src, taps)
			noise64 := fill64(src, taps+n) // >= taps-1+n for every taps
			d64a := fill64(src, n)
			d64b := append([]float64(nil), d64a...)
			macRowRef(t64, noise64, d64b)
			MacRow64(t64, noise64, d64a)
			for i := range d64a {
				if math.Abs(d64a[i]-d64b[i]) > 1e-12*(1+math.Abs(d64b[i])) {
					t.Fatalf("MacRow64 taps=%d n=%d impl=%s: [%d] = %g, want %g", taps, n, Impl(), i, d64a[i], d64b[i])
				}
			}

			t32 := make([]float32, taps)
			noise32 := make([]float32, taps+n)
			d32a := make([]float32, n)
			narrow(t32, t64)
			narrow(noise32, noise64)
			narrow(d32a, fill64(src, n))
			d32b := append([]float32(nil), d32a...)
			macRowRef(t32, noise32, d32b)
			MacRow32(t32, noise32, d32a)
			for i := range d32a {
				if math.Abs(float64(d32a[i]-d32b[i])) > 1e-4*(1+math.Abs(float64(d32b[i]))) {
					t.Fatalf("MacRow32 taps=%d n=%d impl=%s: [%d] = %g, want %g", taps, n, Impl(), i, d32a[i], d32b[i])
				}
			}
		}
	}
}

// TestMacRowBitExactVsAxpy pins the invariant the convolution engines
// rely on: fusing the tap row changes no bits relative to composing
// the axpy kernel per tap, at either precision. This holds on every
// build — both formulations add in tap order, and on arm64 both fuse.
func TestMacRowBitExactVsAxpy(t *testing.T) {
	src := newTestSource(17)
	for _, taps := range []int{1, 3, 11} {
		for _, n := range testLengths {
			t64 := fill64(src, taps)
			noise64 := fill64(src, taps+n)
			d64a := fill64(src, n)
			d64b := append([]float64(nil), d64a...)
			MacRow64(t64, noise64, d64a)
			for a, tap := range t64 {
				Axpy64(tap, noise64[a:a+n], d64b)
			}
			for i := range d64a {
				if !approx.Exact(d64a[i], d64b[i]) {
					t.Fatalf("MacRow64 taps=%d n=%d impl=%s: [%d] = %x, axpy %x", taps, n, Impl(), i, d64a[i], d64b[i])
				}
			}

			t32 := make([]float32, taps)
			noise32 := make([]float32, taps+n)
			d32a := make([]float32, n)
			narrow(t32, t64)
			narrow(noise32, noise64)
			narrow(d32a, fill64(src, n))
			d32b := append([]float32(nil), d32a...)
			MacRow32(t32, noise32, d32a)
			for a, tap := range t32 {
				Axpy32(tap, noise32[a:a+n], d32b)
			}
			for i := range d32a {
				if !approx.Exact(float64(d32a[i]), float64(d32b[i])) {
					t.Fatalf("MacRow32 taps=%d n=%d impl=%s: [%d] = %x, axpy %x", taps, n, Impl(), i, d32a[i], d32b[i])
				}
			}
		}
	}
}

// TestMacRowBitExactVsFallback pins every exact kernel set the host
// runs (go, avx2, avx512 on an AVX-512 host), each called directly,
// against the portable blocked loop bit for bit. Lengths run from 0 to
// two of the widest main blocks plus a 7-sample tail (AVX-512 float32
// blocks are 64 samples), and the tap counts include the paper-batch
// rows (97 and 173 taps).
func TestMacRowBitExactVsFallback(t *testing.T) {
	const maxLen = 2*64 + 7
	src := newTestSource(19)
	for _, k := range exactKernels() {
		for _, taps := range []int{0, 1, 5, 97, 173} {
			t64 := fill64(src, taps)
			noise64 := fill64(src, taps+maxLen)
			t32 := make([]float32, taps)
			noise32 := make([]float32, taps+maxLen)
			narrow(t32, t64)
			narrow(noise32, noise64)
			for n := 0; n <= maxLen; n++ {
				// The noise slice is cut to the contract's minimum,
				// taps−1+n samples (none for an empty tap row).
				nl := max(taps-1+n, 0)
				d64a := fill64(src, n)
				d64b := append([]float64(nil), d64a...)
				k.macRow64(t64, noise64[:nl:nl], d64a)
				macRowGeneric64(t64, noise64[:nl:nl], d64b)
				for i := range d64a {
					if !approx.Exact(d64a[i], d64b[i]) {
						t.Fatalf("%s macRow64 taps=%d n=%d: [%d] = %x, fallback %x", k.name, taps, n, i, d64a[i], d64b[i])
					}
				}

				d32a := make([]float32, n)
				narrow(d32a, fill64(src, n))
				d32b := append([]float32(nil), d32a...)
				k.macRow32(t32, noise32[:nl:nl], d32a)
				macRowGeneric32(t32, noise32[:nl:nl], d32b)
				for i := range d32a {
					if !approx.Exact(float64(d32a[i]), float64(d32b[i])) {
						t.Fatalf("%s macRow32 taps=%d n=%d: [%d] = %x, fallback %x", k.name, taps, n, i, d32a[i], d32b[i])
					}
				}
			}
		}
	}
}

func TestMacRowShortNoisePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MacRow32": func() { MacRow32(make([]float32, 3), make([]float32, 5), make([]float32, 4)) },
		"MacRow64": func() { MacRow64(make([]float64, 3), make([]float64, 5), make([]float64, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on short noise window", name)
				}
			}()
			f()
		}()
	}
}

// BenchmarkMacRow times every kernel set the host runs, called
// directly, at three shapes: the tile-serving row (32 samples, 11 taps)
// and the paper-batch rows (float64: a 64-wide tile row of the 173-tap
// kernel; float32: a 256-wide row of the 23-tap kernel). The axpy
// composition at the tile-serving shape is the baseline the fused row
// replaced. SetBytes counts tap-samples, so MB/s reads as millions of
// tap-samples per second.
func BenchmarkMacRow(b *testing.B) {
	src := newTestSource(5)
	for _, sh := range []struct {
		prec    string
		n, taps int
	}{{"f64", 32, 11}, {"f64", 64, 173}, {"f32", 32, 11}, {"f32", 256, 23}} {
		t64 := fill64(src, sh.taps)
		noise64 := fill64(src, sh.taps-1+sh.n)
		d64 := fill64(src, sh.n)
		t32 := make([]float32, sh.taps)
		noise32 := make([]float32, len(noise64))
		d32 := make([]float32, sh.n)
		narrow(t32, t64)
		narrow(noise32, noise64)
		narrow(d32, d64)
		shape := fmt.Sprintf("%s/%dx%d", sh.prec, sh.n, sh.taps)
		for _, k := range kernels {
			b.Run(shape+"/"+k.name, func(b *testing.B) {
				b.SetBytes(int64(sh.n * sh.taps))
				for i := 0; i < b.N; i++ {
					if sh.prec == "f64" {
						k.macRow64(t64, noise64, d64)
					} else {
						k.macRow32(t32, noise32, d32)
					}
				}
			})
		}
		if sh.n != 32 {
			continue
		}
		b.Run(shape+"/axpy", func(b *testing.B) {
			b.SetBytes(int64(sh.n * sh.taps))
			for i := 0; i < b.N; i++ {
				for a := range t64 {
					if sh.prec == "f64" {
						Axpy64(t64[a], noise64[a:a+sh.n], d64)
					} else {
						Axpy32(t32[a], noise32[a:a+sh.n], d32)
					}
				}
			}
		})
	}
}

func BenchmarkAxpy(b *testing.B) {
	const n = 512
	src := newTestSource(3)
	x64 := fill64(src, n)
	y64 := fill64(src, n)
	b.Run("f64/"+Impl(), func(b *testing.B) {
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			Axpy64(1.0000001, x64, y64)
		}
	})
	x32 := make([]float32, n)
	y32 := make([]float32, n)
	narrow(x32, x64)
	narrow(y32, y64)
	b.Run("f32/"+Impl(), func(b *testing.B) {
		b.SetBytes(4 * n)
		for i := 0; i < b.N; i++ {
			Axpy32(1.0000001, x32, y32)
		}
	})
	b.Run("f64/go", func(b *testing.B) {
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			axpyGeneric64(1.0000001, x64, y64)
		}
	})
	b.Run("f32/go", func(b *testing.B) {
		b.SetBytes(4 * n)
		for i := 0; i < b.N; i++ {
			axpyGeneric32(1.0000001, x32, y32)
		}
	})
}
