package simd

import (
	"math"
	"reflect"
	"runtime"
	"testing"
)

// fieldOracle is fieldLane's Box–Muller through the standard library:
// on amd64 math.Log is the assembly archLog and math.Cos the portable
// sin.go, which logLane and cosLane mirror bit for bit.
func fieldOracle(key uint64) float64 {
	u1, u2 := fieldUniforms(key)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// unmix inverts splitmixFinal: each xorshift is undone by iterating it,
// each odd multiplier by its inverse mod 2^64 (edgeKeys checks the
// round trip).
func unmix(h uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for range 64 / s {
			x = y ^ x>>s
		}
		return x
	}
	inv := func(a uint64) uint64 {
		x := a // Newton's iteration doubles the correct low bits each step
		for range 5 {
			x *= 2 - a*x
		}
		return x
	}
	z := unshift(h, 31)
	z = unshift(z*inv(0x94d049bb133111eb), 27)
	return unshift(z*inv(0xbf58476d1ce4e5b9), 30)
}

// edgeKeys returns lane keys whose uniforms sit on the kernels' edge
// cases: u1 = (H+0.5)·2^-53 at the √2/2 reduction boundary and one ulp
// either side, at its extremes 2^-54 and 1 − 2^-54 (which rounds to 1),
// and at powers of two; u2 = H·2^-53 on and a few ulps either side of
// every octant boundary k·π/4 of the cosine, x = 2π·u2. Each key is
// checked to hash to the H it was built for.
func edgeKeys(t *testing.T) []uint64 {
	var h1s, h2s []uint64
	m := math.Float64bits(math.Sqrt2/2)&(1<<52-1) | 1<<52 // √2/2 = m·2^-53
	for d := uint64(0); d <= 4; d++ {
		// u1 = (m−1)/2·2^-53 + 2^-54 = √2/2 / 2 is the boundary itself
		// (m is odd); ±d ulps around it and around √2/2 at scale 1.
		h1s = append(h1s, (m-1)/2+d, (m-1)/2-d, m+d, m-d)
	}
	for e := uint64(0); e < 53; e++ {
		h1s = append(h1s, 1<<e, 1<<e-1, 1<<e+1)
	}
	h1s = append(h1s, 0, 1<<53-1, 1<<53-2)
	for k := uint64(0); k <= 8; k++ {
		for d := uint64(0); d <= 4; d++ {
			h2s = append(h2s, k<<50+d, k<<50-d)
		}
	}
	var keys []uint64
	add := func(h uint64, round uint64, low uint64) {
		h &= 1<<53 - 1
		key := unmix(h<<11|low) - round*fieldStepI
		if got := splitmixFinal(key+round*fieldStepI) >> 11; got != h {
			t.Fatalf("edge key %#x hashes to H = %#x in round %d, want %#x", key, got, round, h)
		}
		keys = append(keys, key)
	}
	for _, h := range h1s {
		add(h, 1, 0)
		add(h, 1, 0x7ff)
	}
	for _, h := range h2s {
		add(h, 2, 0)
	}
	return keys
}

// TestFieldLaneMatchesOracleAtEdges: on amd64 the branch-free lane is
// the standard library's Box–Muller bit for bit on every edge key.
func TestFieldLaneMatchesOracleAtEdges(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the oracle's math.Log is the archLog the lane mirrors only on amd64")
	}
	for _, key := range edgeKeys(t) {
		if got, want := fieldLane(key), fieldOracle(key); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("key %#x: lane %v (%#x), oracle %v (%#x)", key, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestLogLaneBoundary: the reduction test is archLog's f1 ≤ √2/2, and
// the lane agrees with math.Log (amd64) on and around the boundary and
// at the uniform's extremes. On u1's range (0, 1] the two reduction
// tests give the same bits at every boundary point; the scan reaches
// √2/2·2^32, where log.go's f1 < √2/2 would differ.
func TestLogLaneBoundary(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("math.Log is archLog only on amd64")
	}
	h := math.Sqrt2 / 2
	xs := []float64{1, 0.5, 0x1p-54, 1 - 0x1p-53}
	for e := -60; e <= 60; e++ {
		b := math.Ldexp(h, e)
		xs = append(xs, b, math.Nextafter(b, 0), math.Nextafter(b, 1))
	}
	for _, x := range xs {
		if got, want := logLane(x), math.Log(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("logLane(%v) = %v, math.Log %v", x, got, want)
		}
	}
}

// TestCosLaneOctants: the lane agrees with math.Cos on and one ulp
// either side of every octant boundary k·π/4 in [0, 2π].
func TestCosLaneOctants(t *testing.T) {
	for k := 0; k <= 8; k++ {
		b := float64(k) * math.Pi / 4
		for _, x := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, 8)} {
			if got, want := cosLane(x), math.Cos(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("cosLane(%v) = %v, math.Cos %v", x, got, want)
			}
		}
	}
}

// TestFieldRowBitExactAcrossKernels checks every kernel set the host
// runs against the portable one, bit for bit at both precisions: every
// tail length 0…17 from starts with negative and wrapping indices, the
// edge keys in every lane position, and 2^24 samples over random seeds,
// rows and starts, which on amd64 are also checked against the
// standard-library oracle. float32 rows must be the float64 row
// narrowed once.
func TestFieldRowBitExactAcrossKernels(t *testing.T) {
	const rowLen = 4096
	src := newTestSource(7)
	want := make([]float64, rowLen)
	got := make([]float64, rowLen)
	want32 := make([]float32, rowLen)
	got32 := make([]float32, rowLen)
	compare := func(k kernelSet, n int, row, idx uint64, f32 bool) {
		k.fieldRow64(got[:n], row, idx)
		for m := range n {
			if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
				t.Fatalf("%s fieldRow64 n=%d row=%#x idx=%#x [%d] = %v, go %v", k.name, n, row, idx, m, got[m], want[m])
			}
		}
		if !f32 {
			return
		}
		k.fieldRow32(got32[:n], row, idx)
		for m := range n {
			if math.Float32bits(got32[m]) != math.Float32bits(want32[m]) {
				t.Fatalf("%s fieldRow32 n=%d [%d] = %v, go %v", k.name, n, m, got32[m], want32[m])
			}
		}
	}
	// row fills the reference row and checks it against every set.
	row := func(sets []kernelSet, n int, row, idx uint64, f32, oracle bool) {
		fieldRowGeneric64(want[:n], row, idx)
		if f32 {
			fieldRowGeneric32(want32[:n], row, idx)
		}
		for m := range n {
			if f32 && math.Float32bits(want32[m]) != math.Float32bits(float32(want[m])) {
				t.Fatalf("fieldRowGeneric32 [%d] = %v, float32 of %v", m, want32[m], want[m])
			}
			if oracle && math.Float64bits(want[m]) != math.Float64bits(fieldOracle(row^(idx+uint64(m)*fieldStepI))) {
				t.Fatalf("row=%#x idx=%#x [%d] = %v, oracle %v", row, idx, m, want[m], fieldOracle(row^(idx+uint64(m)*fieldStepI)))
			}
		}
		for _, k := range sets {
			compare(k, n, row, idx, f32)
		}
	}
	starts := []int64{0, -1, -9, 1 << 40, -1 << 50, math.MaxInt64 - 5, math.MinInt64}
	for n := 0; n <= 17; n++ {
		for _, i0 := range starts {
			seed, j := src.Uint64(), int64(src.Uint64())
			row(kernels, n, seed^uint64(j)*fieldStepJ, uint64(i0)*fieldStepI, true, false)
		}
	}
	for _, key := range edgeKeys(t) {
		for lane := 0; lane < 9; lane++ {
			// Position m of a row hashes row ^ (idx + m·fieldStepI), so
			// position lane hashes key itself.
			row(kernels, 17, key, uint64(-lane)*fieldStepI, true, false)
		}
	}
	// The long run skips the sets whose noise kernel is the portable one.
	var native []kernelSet
	for _, k := range kernels {
		if reflect.ValueOf(k.fieldRow64).Pointer() != reflect.ValueOf(fieldRowGeneric64).Pointer() {
			native = append(native, k)
		}
	}
	for r := range 1 << 24 / rowLen {
		i0 := int64(src.Uint64())
		if r%2 == 0 {
			i0 = int64(src.Uint64()%4096) - 2048
		}
		seed, j := src.Uint64(), int64(src.Uint64())
		row(native, rowLen, seed^uint64(j)*fieldStepJ, uint64(i0)*fieldStepI, r%16 == 0, runtime.GOARCH == "amd64")
	}
}
