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

	// f64 and f32 are the two render precisions' state: the kernel taps
	// at that precision, its MAC-row kernel and noise-row fill, and a
	// pool of per-call scratch. A render picks its lane once per call
	// (laneOf), so the generic loops below dispatch nothing per row, and
	// a pool rather than one owned buffer keeps concurrent calls on a
	// shared Generator correct while still reaching zero steady-state
	// allocations. The float32 taps are the kernel narrowed at
	// construction; they live on the Generator, not the Kernel, because
	// Kernel is a mutable exported value type while a Generator's kernel
	// is fixed.
	f64 lane[float64]
	f32 lane[float32]
}

// lane is one render precision's per-generator state; see Generator.
type lane[F simd.Float] struct {
	taps   []F
	macRow func(taps, noise, dst []F)
	fill   func(f rng.Field, dst []F, i0, j int64)
	arenas sync.Pool // *genArena[F]
}

func (l *lane[F]) init(taps []F, macRow func(taps, noise, dst []F), fill func(rng.Field, []F, int64, int64)) {
	l.taps, l.macRow, l.fill = taps, macRow, fill
	l.arenas.New = func() any { return &genArena[F]{} }
}

// laneOf returns g's state for render precision F.
func laneOf[F simd.Float](g *Generator) *lane[F] {
	if l, ok := any(&g.f32).(*lane[F]); ok {
		return l
	}
	return any(&g.f64).(*lane[F])
}

// genArena is one call's worth of scratch. Buffers grow to the largest
// geometry seen and are reused across calls.
type genArena[F simd.Float] struct {
	noise []F // direct engine: wx×wy noise window
	fftScratch
}

// fftScratch is the FFT engine's workspace, float64 at both precisions.
type fftScratch struct {
	pad  []float64    // px×wy padded real workspace (wy noise rows)
	spec []complex128 // (px/2+1)×wy half-spectrum rows
}

// grow returns buf resliced to n, reallocating only when capacity is
// insufficient.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// convert writes src into dst at precision F: a copy for float64, one
// round-to-nearest per sample for float32 (the only narrowing the
// pipeline performs). Lengths must match.
func convert[F simd.Float](dst []F, src []float64) {
	for i, v := range src {
		dst[i] = F(v)
	}
}

// narrowRows converts the window's noise rows [lo, hi), wx samples
// each, from the plane into noise at precision F.
func narrowRows[F simd.Float](noise []F, plane planeView, wx, lo, hi int) {
	for r := lo; r < hi; r++ {
		convert(noise[r*wx:(r+1)*wx], plane.row(r, wx))
	}
}

// NewGenerator wraps a kernel and a noise field seed.
func NewGenerator(k *Kernel, seed uint64) *Generator {
	g := &Generator{kernel: k, field: rng.NewField(seed)}
	taps32 := make([]float32, len(k.Taps))
	convert(taps32, k.Taps)
	g.f64.init(k.Taps, simd.MacRow64, rng.Field.FillRow)
	g.f32.init(taps32, simd.MacRow32, rng.Field.FillRow32)
	return g
}

// Kernel exposes the generator's kernel (shared, not copied).
func (g *Generator) Kernel() *Kernel { return g.kernel }

// GenerateAt materializes the surface window whose lower corner is
// lattice point (i0, j0), of nx×ny samples. Sample (i, j) of the result
// is the surface value at lattice point (i0+i, j0+j); physical
// coordinates are lattice × spacing. The returned grid is caller-owned.
func (g *Generator) GenerateAt(i0, j0 int64, nx, ny int) *grid.Grid {
	return generateAt[float64](g, i0, j0, nx, ny)
}

// GenerateAt32 is GenerateAt at float32 render precision, returning a
// caller-owned Grid32.
func (g *Generator) GenerateAt32(i0, j0 int64, nx, ny int) *grid.Grid32 {
	return generateAt[float32](g, i0, j0, nx, ny)
}

// generateAt is the one body behind GenerateAt and GenerateAt32: it
// allocates the window's grid at precision F and renders into it.
func generateAt[F simd.Float](g *Generator, i0, j0 int64, nx, ny int) *grid.Of[F] {
	k := g.kernel
	out := grid.NewOf[F](nx, ny)
	out.Dx, out.Dy, out.X0, out.Y0 = k.Dx, k.Dy, float64(i0)*k.Dx, float64(j0)*k.Dy
	RenderInto(g, out.Data, nx, i0, j0, nx, ny, g.Workers)
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
	RenderInto(g, dst, stride, i0, j0, nx, ny, workers)
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
	RenderInto(g, dst, stride, i0, j0, nx, ny, workers)
}

// RenderInto is the one body behind GenerateAtInto and GenerateAtInto32,
// rendering at precision F: the engine choice, noise, and tap sum are
// the same code at both precisions, and only the lane (taps, MAC-row
// kernel, noise fill, scratch pool) differs.
func RenderInto[F simd.Float](g *Generator, dst []F, stride int, i0, j0 int64, nx, ny, workers int) {
	checkWindow(len(dst), stride, nx, ny)
	render(g, dst, stride, i0, j0, nx, ny, workers, planeView{})
}

// render is the engine body behind RenderInto and ConvolvePlaneInto.
// Its noise comes from plane when that holds data and from the
// generator's field otherwise; the values are the same either way. A
// float64 direct render reads the plane in place; a float32 one
// narrows its noise window from it, as Field.FillRow32 would.
func render[F simd.Float](g *Generator, dst []F, stride int, i0, j0 int64, nx, ny, workers int, plane planeView) {
	if workers == 0 {
		workers = g.Workers
	}
	l := laneOf[F](g)
	ar := l.arenas.Get().(*genArena[F])
	switch g.engineFor(nx, ny) {
	case EngineDirect:
		if plane.data != nil {
			if noise, ok := any(plane.data[plane.off:]).([]F); ok {
				convDirect(g, l, dst, stride, nx, ny, noise, plane.pnx, workers)
				break
			}
		}
		ni0, nj0, wx, wy := g.kernel.NoiseWindow(i0, j0, nx, ny)
		ar.noise = grow(ar.noise, wx*wy)
		if plane.data != nil {
			// Serially without a closure, as convDirect does.
			if workers == 1 {
				narrowRows(ar.noise, plane, wx, 0, wy)
			} else {
				par.For(wy, workers, func(lo, hi int) { narrowRows(ar.noise, plane, wx, lo, hi) })
			}
		} else {
			FillPlane(g, ar.noise, wx, ni0, nj0, workers)
		}
		convDirect(g, l, dst, stride, nx, ny, ar.noise, wx, workers)
	case EngineFFT:
		pad, px := g.convolveFFT(nx, ny, &ar.fftScratch, i0, j0, workers, plane)
		for j := 0; j < ny; j++ {
			convert(dst[j*stride:j*stride+nx], pad[j*px:j*px+nx])
		}
	}
	l.arenas.Put(ar)
}

// checkWindow validates an nx×ny destination window at the given row
// stride over a buffer of dstLen samples.
func checkWindow(dstLen, stride, nx, ny int) {
	if nx < 1 || ny < 1 {
		panic(fmt.Sprintf("convgen: invalid window %dx%d", nx, ny))
	}
	if stride < nx {
		panic(fmt.Sprintf("convgen: stride %d below window width %d", stride, nx))
	}
	if need := stride*(ny-1) + nx; dstLen < need {
		panic(fmt.Sprintf("convgen: destination holds %d samples, window needs %d", dstLen, need))
	}
}

// GenerateCentered materializes an nx×ny window centered on the lattice
// origin, matching the paper's figure axes.
func (g *Generator) GenerateCentered(nx, ny int) *grid.Grid {
	return g.GenerateAt(-int64(nx/2), -int64(ny/2), nx, ny)
}

// EngineFor reports the engine GenerateAt* and ConvolvePlaneInto
// select for an nx×ny window — EngineDirect or EngineFFT, resolving
// EngineAuto's cost heuristic. Batching callers use it to size the
// shared noise plane and for reporting.
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

// convolveFFT computes the linear correlation of the window's noise
// with the kernel through padded real-input FFTs: corr =
// IRFFT(RFFT(noise)·conj(RFFT(taps))) evaluated on the valid region.
// Both spectra are Hermitian (real inputs), so the whole pipeline runs
// on nx/2+1 bins per row — about half the arithmetic and memory traffic
// of the complex route. fft.Plan2D.CorrelateRealRows runs the whole
// correlation with the spectral multiply fused into its column pass,
// reading only the wy noise rows and writing only the ny rows extracted.
// The padded size per axis is the next power of two at or above the
// noise window, which is always at least output+kernel−1, so no
// circular wrap reaches the extracted samples. The noise rows come from
// plane when it holds data and from the field otherwise, with the same
// values.
// The kernel half-spectrum is cached per padded size; plans come from
// the worker-keyed process cache, so steady state builds no tables and
// allocates nothing beyond the output grid. The transforms run in
// float64 at both render precisions: the FFT path is already
// O(N log N) with most of its time in the transforms, so a float32
// transform stack would buy little (DESIGN.md §13). It returns the
// arena's pad plus its row stride; rows [0, ny) of the valid region
// start at pad[j*px].
func (g *Generator) convolveFFT(nx, ny int, sc *fftScratch, i0, j0 int64, workers int, plane planeView) ([]float64, int) {
	k := g.kernel
	wx := nx + k.Nx - 1
	wy := ny + k.Ny - 1
	px := nextPow2(wx)
	py := nextPow2(wy)
	plan, err := fft.CachedPlan2DWorkers(px, py, workers)
	if err != nil {
		panic(err)
	}
	// The workspaces hold only the wy rows the correlation reads (it
	// writes only the ny ≤ wy rows extracted below); rows [wy, py) are
	// zero padding it takes as read, so they are never stored.
	sc.pad = grow(sc.pad, px*wy)
	sc.spec = grow(sc.spec, plan.HalfNx()*wy)
	pad := sc.pad

	// Noise rows go straight into the padded workspace, from the plane
	// or the field; their column padding is re-zeroed because the arena
	// still holds the previous call's inverse output.
	par.For(wy, workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			row := pad[j*px : (j+1)*px]
			if plane.data != nil {
				copy(row[:wx], plane.row(j, wx))
			} else {
				g.field.FillRow(row[:wx], i0-int64(k.CX), j0-int64(k.CY)+int64(j))
			}
			clear(row[wx:])
		}
	})
	plan.CorrelateRealRows(pad, pad, g.cachedTapsHat(plan, px, py), sc.spec, wy, ny)
	return pad, px
}

// cachedTapsHat returns the half-spectrum of the kernel zero-padded to
// px×py, in the column-block layout CorrelateRealRows reads
// (Plan2D.BlockInterleaved), computing and caching it on first use for
// that size.
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
	hat = plan.BlockInterleaved(hat)
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
