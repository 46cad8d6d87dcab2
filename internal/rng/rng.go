// Package rng supplies the random-number machinery of the generators:
//
//   - Source: a seedable xoshiro256** stream with SplitMix64 seeding and
//     a Jump() for carving independent parallel streams;
//   - Gaussian: N(0,1) variates via the Box–Muller transform, the same
//     construction as paper eqn (18);
//   - Field: a counter-based Gaussian *random field* that returns a
//     deterministic N(0,1) value for any integer lattice point (i, j).
//
// Field is what realizes the paper's claim that the convolution method
// "can simulate arbitrarily long or wide RRSs by successive
// computations": two tiles generated independently see bit-identical
// noise in their overlap, so strips join without seams.
//
// The field's definition. For seed s and lattice point (i, j), in
// wrapping uint64 arithmetic with the odd multipliers Ci (SplitMix64's
// increment) and Cj, internal/simd/noise.go's fieldStepI and fieldStepJ:
//
//	key    = s ^ i·Ci ^ j·Cj
//	h1, h2 = SplitMix64's output mix of the states key+Ci and key+2·Ci
//	u1     = (float64(h1>>11) + 0.5)·2^-53   in (0, 1]
//	u2     = float64(h2>>11)·2^-53           in [0, 1)
//	At     = sqrt(−2·ln u1) · cos(2π·u2)     (paper eqn 18)
//
// The +0.5 rounds to nearest even, so u1 can be exactly 1. ln is Go's
// amd64 math.Log (the assembly archLog, whose reduction tests
// f1 ≤ √2/2) and cos is math.Cos, each product rounded on its own (no
// FMA): on amd64 At equals the expression written with the standard
// library, bit for bit, and every architecture computes the amd64
// value. Only the cosine output of the Box–Muller pair is used.
//
// The simd package holds the lane kernels (simd.FieldRow64): eight
// lanes per ZMM block where the CPU has AVX-512 with AVX512DQ, four per
// YMM block on AVX2, a branch-free pure-Go lane elsewhere, all with the
// same bytes. On the 2-vCPU AVX-512 Xeon bench host a 4096-sample
// FillRow costs ~5.2 ns per sample on AVX-512, ~9 ns on AVX2 and
// ~34 ns through the pure-Go lane (BenchmarkFieldFillRow).
package rng

import (
	"math"

	"roughsurface/internal/simd"
)

// splitmix64 advances *state and returns the next SplitMix64 output.
// It seeds Source; Field's lanes use the same mix (simd.FieldAt).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a xoshiro256** pseudo-random generator. It is not safe for
// concurrent use; derive one Source per goroutine with Split or Jump.
type Source struct {
	s [4]uint64
}

// NewSource returns a Source seeded from the given seed via SplitMix64,
// per the xoshiro authors' recommendation.
func NewSource(seed uint64) *Source {
	var src Source
	st := seed
	for i := range src.s {
		src.s[i] = splitmix64(&st)
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// open01 returns a uniform variate in (0, 1), never exactly 0, so it is
// safe inside log().
func (s *Source) open01() float64 {
	return (float64(s.Uint64()>>11) + 0.5) * (1.0 / (1 << 53))
}

// jumpPoly is the xoshiro256** jump polynomial: calling Jump advances the
// stream by 2^128 steps, yielding 2^128 non-overlapping substreams.
var jumpPoly = [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}

// Jump advances the source by 2^128 steps in place.
func (s *Source) Jump() {
	var t [4]uint64
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				t[0] ^= s.s[0]
				t[1] ^= s.s[1]
				t[2] ^= s.s[2]
				t[3] ^= s.s[3]
			}
			s.Uint64()
		}
	}
	s.s = t
}

// Split returns a new Source 2^128 steps ahead and advances s past it, so
// repeated Split calls hand out pairwise non-overlapping streams.
func (s *Source) Split() *Source {
	child := &Source{s: s.s}
	s.Jump()
	return child
}

// Gaussian draws standard normal variates from a Source using the
// Box–Muller transform (paper eqn 18): with u1 ~ U(0, 2π) and
// u2 ~ U(0, 1),  X = sqrt(−2·ln u2)·cos(u1). Both Box–Muller outputs are
// used (the sine branch is cached), so one log/sqrt pair serves two
// variates.
type Gaussian struct {
	Src    *Source
	cached float64
	has    bool
}

// NewGaussian returns a Gaussian reading from a fresh Source with seed.
func NewGaussian(seed uint64) *Gaussian {
	return &Gaussian{Src: NewSource(seed)}
}

// Next returns the next N(0,1) variate.
func (g *Gaussian) Next() float64 {
	if g.has {
		g.has = false
		return g.cached
	}
	u1 := g.Src.Float64() * 2 * math.Pi
	u2 := g.Src.open01()
	r := math.Sqrt(-2 * math.Log(u2))
	s, c := math.Sincos(u1)
	g.cached = r * s
	g.has = true
	return r * c
}

// Fill populates dst with independent N(0,1) variates.
func (g *Gaussian) Fill(dst []float64) {
	for i := range dst {
		dst[i] = g.Next()
	}
}

// Field is a counter-based (stateless) Gaussian random field: At(i, j) is
// a deterministic function of (seed, i, j) distributed N(0,1) and
// independent across lattice points. Because there is no sequential
// state, any window of the field can be materialized in any order, on any
// number of goroutines, with identical results — the property the tiled
// and streaming convolution engines rely on.
type Field struct {
	seed uint64
}

// NewField returns the Gaussian field identified by seed.
func NewField(seed uint64) Field { return Field{seed: seed} }

// Seed reports the field's identity.
func (f Field) Seed() uint64 { return f.seed }

// At returns the field value at lattice point (i, j): the length-1
// case of FillRow.
func (f Field) At(i, j int64) float64 { return simd.FieldAt(f.seed, i, j) }

// FillRow materializes len(dst) consecutive row samples of the field:
// dst[m] = At(i0+m, j), bit-identical to the per-sample calls, through
// the lane-parallel noise kernel of the selected simd kernel set.
func (f Field) FillRow(dst []float64, i0, j int64) { simd.FieldRow64(dst, f.seed, i0, j) }

// FillRow32 is FillRow narrowed to float32 at the store: each sample is
// the float64 field value rounded once to single precision, so the f32
// render pipeline sees the same realization as the reference engine to
// within one rounding step. The Box–Muller math stays in float64 —
// computing in f32 would compound rounding, and the float64 lanes
// already run eight to a vector on AVX-512.
func (f Field) FillRow32(dst []float32, i0, j int64) { simd.FieldRow32(dst, f.seed, i0, j) }

// FillRect materializes the window [i0, i0+nx) × [j0, j0+ny) of the field
// into dst (row-major, nx fast).
func (f Field) FillRect(dst []float64, i0, j0 int64, nx, ny int) {
	if len(dst) != nx*ny {
		panic("rng: FillRect length mismatch")
	}
	for j := 0; j < ny; j++ {
		f.FillRow(dst[j*nx:(j+1)*nx], i0, j0+int64(j))
	}
}
