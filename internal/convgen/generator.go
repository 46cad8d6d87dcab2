package convgen

import (
	"fmt"
	"sync"

	"roughsurface/internal/fft"
	"roughsurface/internal/grid"
	"roughsurface/internal/par"
	"roughsurface/internal/rng"
	"roughsurface/internal/simd"
)

// Engine selects the convolution implementation.
type Engine int

const (
	// EngineAuto picks Direct for small kernels and FFT otherwise.
	EngineAuto Engine = iota
	// EngineDirect evaluates paper eqn (36) literally: an explicit tap
	// sum per output sample. O(outputs × taps).
	EngineDirect
	// EngineFFT computes the identical linear correlation through padded
	// real-input FFTs. O(N log N); bit-exact determinism with
	// EngineDirect is not guaranteed but agreement is to ~1e-10.
	EngineFFT
)

// directCostLimit is the tap-multiply budget above which EngineAuto
// switches from the literal sum to the FFT path.
const directCostLimit = 1 << 27

// Generator produces homogeneous surfaces by filtering the counter-based
// white Gaussian field with the kernel. Because the noise is a pure
// function of (seed, lattice point), any window at any offset can be
// generated independently — overlapping windows agree exactly, which is
// what makes strip-by-strip generation of unbounded surfaces seamless.
//
// A Generator is safe for concurrent use: per-call scratch comes from an
// internal pool, and the kernel-spectrum cache is locked. Returned grids
// are caller-owned; scratch is never shared with them. In steady state —
// streaming strips, fixed-size tiles — a Generate call allocates only
// the returned grid.
type Generator struct {
	kernel *Kernel
	field  rng.Field

	// Workers bounds per-call parallelism (0 = GOMAXPROCS).
	Workers int
	// Engine selects the convolution path (default EngineAuto).
	Engine Engine

	// tapsHat caches the half-spectrum of the zero-padded kernel per
	// FFT size: streaming and tiled workloads re-enter convolveFFT with
	// the same geometry, and the kernel never changes. Bounded (small
	// LRU) so mixed-size tiled workloads cannot grow it without limit.
	tapsHat tapsCache

	// arenas pools the per-call scratch buffers (noise window, padded
	// real workspace, half-spectrum). A pool rather than one owned
	// buffer keeps concurrent GenerateAt calls on a shared Generator
	// correct while still reaching zero steady-state allocations.
	arenas sync.Pool

	// taps32 is the kernel narrowed to float32, built once on first use
	// of the f32 render path. It lives on the Generator, not the Kernel:
	// Kernel is a mutable exported value type, while a Generator's
	// kernel is fixed at construction, which makes the cache safe.
	taps32     []float32
	taps32Once sync.Once
}

// genArena is one call's worth of scratch. Buffers grow to the largest
// geometry seen and are reused across calls.
type genArena struct {
	noise   []float64    // direct engine: wx×wy noise window
	noise32 []float32    // f32 direct engine: wx×wy noise window
	pad     []float64    // fft engine: px×py padded real workspace
	spec    []complex128 // fft engine: (px/2+1)×py half-spectrum
}

// growF returns buf resliced to n, reallocating only when capacity is
// insufficient.
func growF(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

func growC(buf []complex128, n int) []complex128 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]complex128, n)
}

func grow32(buf []float32, n int) []float32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float32, n)
}

// NewGenerator wraps a kernel and a noise field seed.
func NewGenerator(k *Kernel, seed uint64) *Generator {
	g := &Generator{kernel: k, field: rng.NewField(seed)}
	g.arenas.New = func() any { return &genArena{} }
	return g
}

// Kernel exposes the generator's kernel (shared, not copied).
func (g *Generator) Kernel() *Kernel { return g.kernel }

// GenerateAt materializes the surface window whose lower corner is
// lattice point (i0, j0), of nx×ny samples. Sample (i, j) of the result
// is the surface value at lattice point (i0+i, j0+j); physical
// coordinates are lattice × spacing. The returned grid is caller-owned.
func (g *Generator) GenerateAt(i0, j0 int64, nx, ny int) *grid.Grid {
	if nx < 1 || ny < 1 {
		panic(fmt.Sprintf("convgen: invalid window %dx%d", nx, ny))
	}
	k := g.kernel
	out := grid.New(nx, ny)
	out.Dx, out.Dy = k.Dx, k.Dy
	out.X0 = float64(i0) * k.Dx
	out.Y0 = float64(j0) * k.Dy
	g.GenerateAtInto(out.Data, nx, i0, j0, nx, ny, g.Workers)
	return out
}

// GenerateAtInto is GenerateAt writing into a caller-owned destination
// buffer instead of allocating a grid: row j of the window lands at
// dst[j*stride : j*stride+nx], so a tile can be rendered in place
// inside a larger raster (stride = the raster's row length). Samples
// outside the written rows/columns are untouched. workers bounds this
// call's parallelism (0 defers to the generator's Workers field, whose
// 0 in turn means GOMAXPROCS); unlike mutating Workers, passing it here
// is safe under concurrent calls on one Generator. Scratch comes from
// the generator's arena pool, so the call itself allocates nothing in
// steady state.
func (g *Generator) GenerateAtInto(dst []float64, stride int, i0, j0 int64, nx, ny, workers int) {
	if nx < 1 || ny < 1 {
		panic(fmt.Sprintf("convgen: invalid window %dx%d", nx, ny))
	}
	if stride < nx {
		panic(fmt.Sprintf("convgen: stride %d below window width %d", stride, nx))
	}
	if need := stride*(ny-1) + nx; len(dst) < need {
		panic(fmt.Sprintf("convgen: destination holds %d samples, window needs %d", len(dst), need))
	}
	if workers == 0 {
		workers = g.Workers
	}
	ar := g.arenas.Get().(*genArena)
	switch g.engineFor(nx, ny) {
	case EngineDirect:
		g.convolveDirect(dst, stride, nx, ny, ar, i0, j0, workers)
	case EngineFFT:
		g.convolveFFT(dst, stride, nx, ny, ar, i0, j0, workers)
	}
	g.arenas.Put(ar)
}

// GenerateAtInto32 is GenerateAtInto rendering in float32 — the serving
// hot path. Taps and noise are narrowed once and the multiply-
// accumulate runs entirely in single precision through the simd MAC
// kernels, which roughly halves memory traffic and doubles SIMD lane
// count over the float64 reference engine. Agreement with the float64
// path is statistical, not bit-exact: each sample differs by rounding
// noise bounded well below the surface's own sampling variability (the
// agreement tests gate at 1e-4·σh per sample). Under the FFT engine
// the float64 transforms run unchanged and only the extracted rows are
// narrowed. All other semantics (row placement, caller ownership,
// worker bounding, pooled scratch) match GenerateAtInto.
func (g *Generator) GenerateAtInto32(dst []float32, stride int, i0, j0 int64, nx, ny, workers int) {
	if nx < 1 || ny < 1 {
		panic(fmt.Sprintf("convgen: invalid window %dx%d", nx, ny))
	}
	if stride < nx {
		panic(fmt.Sprintf("convgen: stride %d below window width %d", stride, nx))
	}
	if need := stride*(ny-1) + nx; len(dst) < need {
		panic(fmt.Sprintf("convgen: destination holds %d samples, window needs %d", len(dst), need))
	}
	if workers == 0 {
		workers = g.Workers
	}
	ar := g.arenas.Get().(*genArena)
	switch g.engineFor(nx, ny) {
	case EngineDirect:
		g.convolveDirect32(dst, stride, nx, ny, ar, i0, j0, workers)
	case EngineFFT:
		g.convolveFFT32(dst, stride, nx, ny, ar, i0, j0, workers)
	}
	g.arenas.Put(ar)
}

// GenerateAt32 is GenerateAt at float32 render precision, returning a
// caller-owned Grid32.
func (g *Generator) GenerateAt32(i0, j0 int64, nx, ny int) *grid.Grid32 {
	if nx < 1 || ny < 1 {
		panic(fmt.Sprintf("convgen: invalid window %dx%d", nx, ny))
	}
	k := g.kernel
	out := grid.New32(nx, ny)
	out.Dx, out.Dy = k.Dx, k.Dy
	out.X0 = float64(i0) * k.Dx
	out.Y0 = float64(j0) * k.Dy
	g.GenerateAtInto32(out.Data, nx, i0, j0, nx, ny, g.Workers)
	return out
}

// GenerateCentered materializes an nx×ny window centered on the lattice
// origin, matching the paper's figure axes.
func (g *Generator) GenerateCentered(nx, ny int) *grid.Grid {
	return g.GenerateAt(-int64(nx/2), -int64(ny/2), nx, ny)
}

// EngineFor reports the engine GenerateAt* would select for an nx×ny
// window — EngineDirect or EngineFFT, resolving EngineAuto's cost
// heuristic. Callers batching windows against a shared noise plane
// (ConvolveNoiseInto*, which is direct-only) use it to fall back to the
// self-contained API where the FFT engine would win.
func (g *Generator) EngineFor(nx, ny int) Engine { return g.engineFor(nx, ny) }

func (g *Generator) engineFor(nx, ny int) Engine {
	switch g.Engine {
	case EngineDirect, EngineFFT:
		return g.Engine
	}
	cost := int64(nx) * int64(ny) * int64(g.kernel.Nx) * int64(g.kernel.Ny)
	if cost <= directCostLimit {
		return EngineDirect
	}
	return EngineFFT
}

// fillNoise materializes the noise window [i0, i0+wx) × [j0, j0+wy)
// into rows of dst at the given stride.
func (g *Generator) fillNoise(dst []float64, i0, j0 int64, wx, wy, stride, workers int) {
	par.For(wy, workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			g.field.FillRow(dst[j*stride:j*stride+wx], i0, j0+int64(j))
		}
	})
}

// convolveDirect evaluates f(i,j) = Σ_{a,b} taps[b][a]·X(i+a−cx, j+b−cy);
// the noise window is offset by (−cx, −cy), so the inner expression
// indexes noise at (i+a, j+b). The tap sum runs through the generic
// axpy core, which is bit-identical to the literal per-sample sum.
func (g *Generator) convolveDirect(dst []float64, stride, nx, ny int, ar *genArena, i0, j0 int64, workers int) {
	k := g.kernel
	wx := nx + k.Nx - 1
	wy := ny + k.Ny - 1
	ar.noise = growF(ar.noise, wx*wy)
	noise := ar.noise
	g.fillNoise(noise, i0-int64(k.CX), j0-int64(k.CY), wx, wy, wx, workers)
	convDirect(dst, stride, nx, ny, k.Taps, k.Nx, k.Ny, noise, wx, simd.MacRow64, workers)
}

// convolveDirect32 is the float32 serving path: float32 taps, a noise
// window narrowed at fill time, and the float32 MAC kernel.
func (g *Generator) convolveDirect32(dst []float32, stride, nx, ny int, ar *genArena, i0, j0 int64, workers int) {
	k := g.kernel
	wx := nx + k.Nx - 1
	wy := ny + k.Ny - 1
	ar.noise32 = grow32(ar.noise32, wx*wy)
	noise := ar.noise32
	ni0, nj0 := i0-int64(k.CX), j0-int64(k.CY)
	par.For(wy, workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			g.field.FillRow32(noise[j*wx:j*wx+wx], ni0, nj0+int64(j))
		}
	})
	convDirect(dst, stride, nx, ny, g.kernelTaps32(), k.Nx, k.Ny, noise, wx, simd.MacRow32, workers)
}

// kernelTaps32 returns the kernel narrowed to float32, built on first
// use and cached for the generator's lifetime.
func (g *Generator) kernelTaps32() []float32 {
	g.taps32Once.Do(func() {
		g.taps32 = make([]float32, len(g.kernel.Taps))
		simd.Narrow(g.taps32, g.kernel.Taps)
	})
	return g.taps32
}

// convolveFFT computes the same linear correlation with padded
// real-input FFTs: corr = IRFFT(RFFT(noise)·conj(RFFT(taps))) evaluated
// on the valid region. Both spectra are Hermitian (real inputs), so the
// whole pipeline runs on nx/2+1 bins per row — about half the
// arithmetic and memory traffic of the complex route. The padded size
// per axis is the next power of two at or above the noise window, which
// is always at least output+kernel−1, so no circular wrap reaches the
// extracted samples. The kernel half-spectrum is cached per padded
// size; plans come from the worker-keyed process cache, so steady state
// builds no tables and allocates nothing beyond the output grid.
func (g *Generator) convolveFFT(dst []float64, stride, nx, ny int, ar *genArena, i0, j0 int64, workers int) {
	pad, px := g.convolveFFTPad(nx, ny, ar, i0, j0, workers)
	for j := 0; j < ny; j++ {
		copy(dst[j*stride:j*stride+nx], pad[j*px:j*px+nx])
	}
}

// convolveFFT32 runs the float64 FFT engine and narrows the extracted
// rows. The FFT path is already O(N log N) with most of its time in
// the transforms, so a float32 transform stack would buy little; the
// f32 speedup lives in the direct path (DESIGN.md §13).
func (g *Generator) convolveFFT32(dst []float32, stride, nx, ny int, ar *genArena, i0, j0 int64, workers int) {
	pad, px := g.convolveFFTPad(nx, ny, ar, i0, j0, workers)
	for j := 0; j < ny; j++ {
		simd.Narrow(dst[j*stride:j*stride+nx], pad[j*px:j*px+nx])
	}
}

// convolveFFTPad computes the correlation on the padded workspace and
// returns the arena's pad plus its row stride; rows [0, ny) of the
// valid region start at pad[j*px].
func (g *Generator) convolveFFTPad(nx, ny int, ar *genArena, i0, j0 int64, workers int) ([]float64, int) {
	k := g.kernel
	wx := nx + k.Nx - 1
	wy := ny + k.Ny - 1
	px := nextPow2(wx)
	py := nextPow2(wy)
	plan, err := fft.CachedPlan2DWorkers(px, py, workers)
	if err != nil {
		panic(err)
	}
	hx := plan.HalfNx()
	ar.pad = growF(ar.pad, px*py)
	ar.spec = growC(ar.spec, hx*py)
	spec := ar.spec
	pad := ar.pad

	// Noise rows go straight into the padded workspace; their column
	// padding is re-zeroed because the arena still holds the previous
	// call's inverse output. Rows at and beyond wy are zero padding: the
	// row-bounded forward never reads them, and the row-bounded inverse
	// writes only the ny rows extracted below.
	par.For(wy, workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			row := pad[j*px : (j+1)*px]
			g.field.FillRow(row[:wx], i0-int64(k.CX), j0-int64(k.CY)+int64(j))
			clear(row[wx:])
		}
	})

	plan.ForwardRealRows(spec, pad, wy)
	tHat := g.cachedTapsHat(plan, px, py)
	par.For(len(spec), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := tHat[i]
			spec[i] *= complex(real(t), -imag(t))
		}
	})
	plan.InverseRealRowsTo(pad, spec, ny)
	return pad, px
}

// cachedTapsHat returns the half-spectrum of the kernel zero-padded to
// px×py, computing and caching it on first use for that size.
func (g *Generator) cachedTapsHat(plan *fft.Plan2D, px, py int) []complex128 {
	key := [2]int{px, py}
	if hat := g.tapsHat.get(key); hat != nil {
		return hat
	}
	k := g.kernel
	pad := make([]float64, px*py)
	for b := 0; b < k.Ny; b++ {
		copy(pad[b*px:b*px+k.Nx], k.Taps[b*k.Nx:(b+1)*k.Nx])
	}
	hat := make([]complex128, plan.HalfNx()*py)
	plan.ForwardReal(hat, pad)
	g.tapsHat.put(key, hat)
	return hat
}

// tapsCacheSize bounds the kernel-spectrum LRU. Streaming and
// fixed-tile workloads live on one entry; mixed-size tile mosaics cycle
// a handful. Recomputing an evicted entry costs one forward transform,
// so a small bound is the right trade against unbounded growth.
const tapsCacheSize = 4

type tapsEntry struct {
	key  [2]int
	hat  []complex128
	used uint64
}

// tapsCache is a locked fixed-capacity LRU keyed by padded FFT size.
type tapsCache struct {
	mu      sync.Mutex
	tick    uint64
	entries []tapsEntry
}

func (c *tapsCache) get(key [2]int) []complex128 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.entries {
		if c.entries[i].key == key {
			c.tick++
			c.entries[i].used = c.tick
			return c.entries[i].hat
		}
	}
	return nil
}

func (c *tapsCache) put(key [2]int, hat []complex128) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	for i := range c.entries {
		if c.entries[i].key == key {
			// A concurrent call computed the same spectrum; keep ours
			// fresh but do not grow the cache.
			c.entries[i].hat = hat
			c.entries[i].used = c.tick
			return
		}
	}
	if len(c.entries) < tapsCacheSize {
		c.entries = append(c.entries, tapsEntry{key: key, hat: hat, used: c.tick})
		return
	}
	evict := 0
	for i := 1; i < len(c.entries); i++ {
		if c.entries[i].used < c.entries[evict].used {
			evict = i
		}
	}
	c.entries[evict] = tapsEntry{key: key, hat: hat, used: c.tick}
}

// len reports the number of cached spectra (test hook).
func (c *tapsCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Streamer generates an unbounded-in-y surface as successive strips of
// fixed width, realizing the paper's "arbitrarily long or wide RRSs by
// successive computations". Adjacent strips are statistically seamless
// by construction (shared noise field); Next never re-reads previous
// strips.
type Streamer struct {
	gen     *Generator
	i0      int64
	nx      int
	stripNy int
	nextJ   int64
}

// NewStreamer starts a streamer over columns [i0, i0+nx) beginning at
// lattice row j0, producing strips of stripNy rows per Next call.
func NewStreamer(gen *Generator, i0, j0 int64, nx, stripNy int) *Streamer {
	if nx < 1 || stripNy < 1 {
		panic(fmt.Sprintf("convgen: invalid streamer geometry nx=%d stripNy=%d", nx, stripNy))
	}
	return &Streamer{gen: gen, i0: i0, nx: nx, stripNy: stripNy, nextJ: j0}
}

// Next returns the next strip and advances.
func (s *Streamer) Next() *grid.Grid {
	strip := s.gen.GenerateAt(s.i0, s.nextJ, s.nx, s.stripNy)
	s.nextJ += int64(s.stripNy)
	return strip
}

// NextRow reports the lattice row the next strip will start at.
func (s *Streamer) NextRow() int64 { return s.nextJ }
