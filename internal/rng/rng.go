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
package rng

import "math"

// splitmix64 advances *state and returns the next SplitMix64 output.
// It is used both for seeding and as the mixing core of Field.
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

// At returns the field value at lattice point (i, j).
func (f Field) At(i, j int64) float64 {
	// Mix the coordinates and seed through two SplitMix64 rounds. The
	// odd multipliers decorrelate the axes; the second round output
	// supplies the angle variate.
	st := f.seed ^ uint64(i)*0x9e3779b97f4a7c15 ^ uint64(j)*0xc2b2ae3d27d4eb4f
	h1 := splitmix64(&st)
	h2 := splitmix64(&st)
	u1 := (float64(h1>>11) + 0.5) * (1.0 / (1 << 53)) // (0,1): safe in log
	u2 := float64(h2>>11) * (1.0 / (1 << 53))         // [0,1): angle
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// FillRow materializes len(dst) consecutive row samples of the field:
// dst[m] = At(i0+m, j), bit-identical to the per-sample calls. The
// row-dependent half of the seed mix is hoisted out of the loop, which
// makes this the preferred form for the generators' noise pass.
func (f Field) FillRow(dst []float64, i0, j int64) { fillRow(f, dst, i0, j) }

// FillRow32 is FillRow narrowed to float32 at the store: each sample is
// the float64 field value rounded once to single precision, so the f32
// render pipeline sees the same realization as the reference engine to
// within one rounding step. The Box–Muller math stays in float64 —
// log/sqrt/cos dominate the cost either way, and computing in f32 would
// compound rounding without saving time.
func (f Field) FillRow32(dst []float32, i0, j int64) { fillRow(f, dst, i0, j) }

// float is the sample precision of a filled row. It matches simd.Float,
// which rng cannot import: simd's tests draw their inputs from rng.
type float interface {
	~float32 | ~float64
}

// fillRow is the one row-fill body behind FillRow and FillRow32: the
// float64 field value, converted to F at the store (the identity for
// float64, one round-to-nearest for float32).
func fillRow[F float](f Field, dst []F, i0, j int64) {
	rowSeed := f.seed ^ uint64(j)*0xc2b2ae3d27d4eb4f
	i := uint64(i0) * 0x9e3779b97f4a7c15
	for m := range dst {
		st := rowSeed ^ i
		i += 0x9e3779b97f4a7c15
		h1 := splitmix64(&st)
		h2 := splitmix64(&st)
		u1 := (float64(h1>>11) + 0.5) * (1.0 / (1 << 53)) // (0,1): safe in log
		u2 := float64(h2>>11) * (1.0 / (1 << 53))         // [0,1): angle
		dst[m] = F(math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
	}
}

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
