package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"roughsurface/internal/core"
	"roughsurface/internal/grid"
	"roughsurface/internal/render"
	"roughsurface/internal/simd"
)

// window is one requested tile: lattice lower corner and sample counts.
// For pyramid requests the coordinates are in the level's own lattice
// (level-z lattice point i sits at physical i·Dx·2^z).
type window struct {
	x0, y0 int64
	nx, ny int
}

// parseWindow decodes the "{x0},{y0},{nx}x{ny}" path segment, e.g.
// "-128,0,256x64".
func parseWindow(s string) (window, error) {
	var w window
	parts := strings.SplitN(s, ",", 3)
	if len(parts) != 3 {
		return w, fmt.Errorf("window %q: want x0,y0,NXxNY", s)
	}
	var err error
	if w.x0, err = strconv.ParseInt(parts[0], 10, 64); err != nil {
		return w, fmt.Errorf("window x0 %q: not an integer", parts[0])
	}
	if w.y0, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
		return w, fmt.Errorf("window y0 %q: not an integer", parts[1])
	}
	dims := strings.SplitN(parts[2], "x", 2)
	if len(dims) != 2 {
		return w, fmt.Errorf("window size %q: want NXxNY", parts[2])
	}
	if w.nx, err = strconv.Atoi(dims[0]); err != nil || w.nx < 1 {
		return w, fmt.Errorf("window nx %q: want a positive integer", dims[0])
	}
	if w.ny, err = strconv.Atoi(dims[1]); err != nil || w.ny < 1 {
		return w, fmt.Errorf("window ny %q: want a positive integer", dims[1])
	}
	return w, nil
}

// Tile formats.
const (
	formatF32 = "f32" // row-major little-endian float32, row 0 first
	formatPNG = "png" // terrain-colormapped render.PNG
)

// cacheKey is the full identity of a tile response. precision is part
// of the key because f32 and f64 renders of the same window differ in
// bytes (within tolerance, but cached responses must be reproducible
// bit-for-bit for their parameters). level is part of the key because
// the same window coordinates address different lattices per level;
// level 0 keeps the pre-pyramid key shape so a warm cache stays valid
// across the route addition.
func cacheKey(sceneID string, level int, seed uint64, w window, format, precision string) string {
	if level == 0 {
		return fmt.Sprintf("%s|%d|%d,%d,%dx%d|%s|%s", sceneID, seed, w.x0, w.y0, w.nx, w.ny, format, precision)
	}
	return fmt.Sprintf("%s|z%d|%d|%d,%d,%dx%d|%s|%s", sceneID, level, seed, w.x0, w.y0, w.nx, w.ny, format, precision)
}

// tileParams are the query-derived knobs shared by both tile routes.
type tileParams struct {
	seed      uint64
	format    string
	precision string
}

// parseTileParams resolves seed/format/precision from the query, with
// scene defaults. Errors are client errors (400).
func parseTileParams(r *http.Request, entry *sceneEntry) (tileParams, error) {
	p := tileParams{seed: entry.Scene.Seed, format: formatF32}
	q := r.URL.Query()
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return p, fmt.Errorf("seed %q: want an unsigned integer", v)
		}
		p.seed = seed
	}
	if v := q.Get("format"); v != "" {
		if v != formatF32 && v != formatPNG {
			return p, fmt.Errorf("format %q: want f32 or png", v)
		}
		p.format = v
	}
	p.precision = entry.Scene.Precision // normalized: "" means f64
	if p.precision == "" {
		p.precision = core.PrecisionF64
	}
	if v := q.Get("precision"); v != "" {
		if v != core.PrecisionF32 && v != core.PrecisionF64 {
			return p, fmt.Errorf("precision %q: want f32 or f64", v)
		}
		p.precision = v
	}
	return p, nil
}

// handleTile is GET /v1/scene/{id}/tile/{win} — the original
// free-window route, kept as the level-0 alias of the pyramid: its
// cache keys, response bytes, and scene IDs are unchanged by the
// pyramid's existence.
func (s *Server) handleTile(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown scene id")
		return
	}
	win, err := parseWindow(r.PathValue("win"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if win.nx > s.cfg.MaxTileEdge || win.ny > s.cfg.MaxTileEdge ||
		win.nx*win.ny > s.cfg.MaxTileSamples {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("tile %dx%d exceeds limits (max edge %d, max samples %d)",
				win.nx, win.ny, s.cfg.MaxTileEdge, s.cfg.MaxTileSamples))
		return
	}
	p, err := parseTileParams(r, entry)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveTile(w, r, entry, 0, win, p)
}

// maxTileCoord bounds pyramid tile coordinates so x·TileEdge cannot
// overflow int64 (TileEdge ≤ 4096 = 2^12, so products stay < 2^53).
const maxTileCoord = int64(1) << 40

// handleTileZ is GET /v1/scene/{id}/tile/{z}/{x},{y} — the pyramid
// route. Tiles are fixed TileEdge×TileEdge windows on level z's
// lattice: tile (x, y) covers level-z samples [x·E, (x+1)·E) ×
// [y·E, (y+1)·E). z=0 renders the same surface bytes as the free-window
// route; coarser z renders exactly at decimated spacing (DESIGN.md
// §14). Responses carry Link: rel=prefetch hints for the four lattice
// neighbors, and the daemon best-effort prefetches them in the
// background.
func (s *Server) handleTileZ(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown scene id")
		return
	}
	z, err := strconv.Atoi(r.PathValue("z"))
	if err != nil || z < 0 || z > s.cfg.MaxLevel {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("level %q: want an integer in [0, %d]", r.PathValue("z"), s.cfg.MaxLevel))
		return
	}
	x, y, err := parseTileXY(r.PathValue("xy"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	p, err := parseTileParams(r, entry)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	edge := s.cfg.TileEdge
	win := window{x0: x * int64(edge), y0: y * int64(edge), nx: edge, ny: edge}
	h := w.Header()
	h.Set("X-RRS-Level", strconv.Itoa(z))
	for _, nb := range neighborTiles(x, y) {
		h.Add("Link", fmt.Sprintf("</v1/scene/%s/tile/%d/%d,%d?seed=%d&format=%s>; rel=prefetch",
			entry.ID, z, nb[0], nb[1], p.seed, p.format))
	}
	s.serveTile(w, r, entry, z, win, p)
	// Detached from the request: the hinted neighbors should keep
	// warming even after this response is written and the client gone.
	s.schedulePrefetch(context.WithoutCancel(r.Context()), entry, z, x, y, p)
}

// parseTileXY decodes the "{x},{y}" path segment of the pyramid route.
func parseTileXY(s string) (x, y int64, err error) {
	xs, ys, ok := strings.Cut(s, ",")
	if !ok {
		return 0, 0, fmt.Errorf("tile %q: want x,y", s)
	}
	if x, err = strconv.ParseInt(xs, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("tile x %q: not an integer", xs)
	}
	if y, err = strconv.ParseInt(ys, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("tile y %q: not an integer", ys)
	}
	if x < -maxTileCoord || x > maxTileCoord || y < -maxTileCoord || y > maxTileCoord {
		return 0, 0, fmt.Errorf("tile %d,%d: coordinates exceed ±2^40", x, y)
	}
	return x, y, nil
}

// neighborTiles lists the four lattice neighbors of tile (x, y), the
// prefetch frontier of a panning client. Neighbors past the coordinate
// bound are dropped.
func neighborTiles(x, y int64) [][2]int64 {
	all := [4][2]int64{{x - 1, y}, {x + 1, y}, {x, y - 1}, {x, y + 1}}
	nbs := make([][2]int64, 0, 4)
	for _, nb := range all {
		if nb[0] < -maxTileCoord || nb[0] > maxTileCoord || nb[1] < -maxTileCoord || nb[1] > maxTileCoord {
			continue
		}
		nbs = append(nbs, nb)
	}
	return nbs
}

// serveTile is the shared render-or-cache path behind both tile routes.
// The fast path is a pure cache read; misses in cluster mode first try
// the tile's owning shard (DESIGN.md §16) before passing admission
// control (bounded pool + queue, shedding with 429) and rendering
// locally under the per-request deadline.
func (s *Server) serveTile(w http.ResponseWriter, r *http.Request, entry *sceneEntry, level int, win window, p tileParams) {
	key := cacheKey(entry.ID, level, p.seed, win, p.format, p.precision)
	fromPeer := s.cluster != nil && r.Header.Get(headerPeer) != ""
	if fromPeer && s.draining.Load() {
		// Ahead of shutdown: shed peer traffic immediately so the
		// sender falls back to its own renderer (drain ordering,
		// DESIGN.md §16). Direct clients keep being served below.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if s.cluster != nil {
		w.Header().Set(headerServedBy, s.cluster.Self())
	}
	if e, ok := s.cache.get(key); ok {
		s.met.cacheHits.Add(1)
		s.met.levelHits[level].Add(1)
		writeTile(w, e, win, "hit")
		return
	}
	if s.cluster != nil && !fromPeer {
		if owner, ok := s.cluster.Owner(key); ok {
			w.Header().Set(headerShard, owner.Name)
			if owner.Name != s.cluster.Self() {
				// Not ours: the owner's LRU is the authoritative hot
				// cache for this key. On failure fetchFromOwner has
				// counted the per-peer fallback reason and we render
				// locally below.
				wantLen := 0
				if p.format == formatF32 {
					wantLen = 4 * win.nx * win.ny
				}
				if e, ownerCache, ok := s.fetchFromOwner(r.Context(), r.URL.RequestURI(), owner, key, wantLen); ok {
					w.Header().Set(headerServedBy, owner.Name)
					writeTile(w, e, win, ownerCache)
					return
				}
			}
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	done := make(chan tileResult, 1) // buffered: render may finish after we stop waiting
	accepted := s.pool.TrySubmit(func() {
		if ctx.Err() != nil {
			// The client gave up (or the deadline passed) while this job
			// sat in the queue; skip the render.
			done <- tileResult{err: ctx.Err()}
			return
		}
		res := s.renderTile(ctx, entry, level, p.seed, win, p.format, p.precision)
		if res.err == nil {
			s.cache.add(&cacheEntry{key: key, body: res.body, ctype: res.ctype})
		}
		done <- res
	})
	if !accepted {
		s.met.tileShed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "tile workers saturated")
		return
	}
	select {
	case res := <-done:
		if res.err != nil {
			if ctx.Err() != nil {
				s.met.tileExpired.Add(1)
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable, "tile deadline exceeded")
				return
			}
			//lint:ignore detflow error payloads are client diagnostics, not content-addressed artifacts
			writeError(w, http.StatusInternalServerError, res.err.Error())
			return
		}
		s.met.cacheMisses.Add(1)
		s.met.levelMisses[level].Add(1)
		writeTile(w, &cacheEntry{body: res.body, ctype: res.ctype}, win, "miss")
	case <-ctx.Done():
		// The render (still running) will deliver into the buffered
		// channel and populate the cache for the retry this response
		// invites.
		s.met.tileExpired.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "tile deadline exceeded")
	}
}

// schedulePrefetch enqueues best-effort renders of the four lattice
// neighbors of the tile just served. Strictly subordinate to
// foreground traffic: jobs ride a separate one-worker pool whose
// TrySubmit sheds when its small queue is full, and a job that starts
// while the foreground render queue is non-empty gives up immediately
// rather than steal CPU from it. Dropped or skipped prefetches are
// never retried — the client's own request will render the tile and
// populate the same cache.
func (s *Server) schedulePrefetch(ctx context.Context, entry *sceneEntry, z int, x, y int64, p tileParams) {
	if s.prefetch == nil {
		return
	}
	edge := s.cfg.TileEdge
	for _, nb := range neighborTiles(x, y) {
		win := window{x0: nb[0] * int64(edge), y0: nb[1] * int64(edge), nx: edge, ny: edge}
		key := cacheKey(entry.ID, z, p.seed, win, p.format, p.precision)
		if s.cache.contains(key) {
			continue
		}
		accepted := s.prefetch.TrySubmit(func() {
			if s.pool.QueueDepth() > 0 {
				// Foreground renders are waiting for workers; a prefetch
				// now would delay a request someone is blocked on.
				s.met.prefetchSkipped.Add(1)
				return
			}
			if s.cache.contains(key) {
				return
			}
			pctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
			res := s.renderTile(pctx, entry, z, p.seed, win, p.format, p.precision)
			if res.err != nil {
				return // best effort: the foreground path will report real errors
			}
			s.cache.add(&cacheEntry{key: key, body: res.body, ctype: res.ctype})
			s.met.prefetchRendered.Add(1)
		})
		if !accepted {
			s.met.prefetchDropped.Add(1)
		}
	}
}

type tileResult struct {
	body  []byte
	ctype string
	err   error
}

// renderTile generates and encodes one tile of pyramid level `level`.
// Runs on a pool worker; ctx carries the request deadline across the
// submit boundary. At f32 precision the surface renders through the
// single-precision SIMD pipeline (half the working set, vectorized MAC
// kernels) and the f32 wire format is emitted without a float64 round
// trip.
func (s *Server) renderTile(ctx context.Context, entry *sceneEntry, level int, seed uint64, win window, format, precision string) tileResult {
	gen, err := entry.generator(ctx, level, seed)
	if err != nil {
		return tileResult{err: err}
	}
	if precision == core.PrecisionF32 {
		return encodeTile(renderWindow[float32](gen, win), win, format)
	}
	return encodeTile(renderWindow[float64](gen, win), win, format)
}

// encodeTile encodes rendered samples in the requested format. PNG
// tiles widen the samples for the shared colormapper.
func encodeTile[F simd.Float](data []F, win window, format string) tileResult {
	if format == formatPNG {
		g := grid.New(win.nx, win.ny)
		for i, v := range data {
			g.Data[i] = float64(v)
		}
		var buf bytes.Buffer
		if err := render.PNG(&buf, g); err != nil {
			return tileResult{err: err}
		}
		return tileResult{body: buf.Bytes(), ctype: "image/png"}
	}
	return tileResult{body: encodeF32(data), ctype: "application/octet-stream"}
}

// encodeF32 packs samples row-major (row 0 first) as little-endian
// float32 — the wire format of the f32 tile. float32 halves bandwidth
// relative to the internal float64 at far more precision than surface
// statistics need, and the narrowing is deterministic; f32-rendered
// samples already hold the wire precision, so float32(v) is the
// identity for them.
func encodeF32[F simd.Float](data []F) []byte {
	body := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(body[4*i:], math.Float32bits(float32(v)))
	}
	return body
}

// decodeF32 is the inverse of encodeF32's framing, for the package's
// tests.
func decodeF32(body []byte) []float32 {
	out := make([]float32, len(body)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
	}
	return out
}

func writeTile(w http.ResponseWriter, e *cacheEntry, win window, cacheState string) {
	h := w.Header()
	h.Set("Content-Type", e.ctype)
	h.Set("Content-Length", strconv.Itoa(len(e.body)))
	h.Set("X-RRS-Window", fmt.Sprintf("%d,%d,%dx%d", win.x0, win.y0, win.nx, win.ny))
	h.Set("X-Cache", cacheState)
	h.Set("Cache-Control", "public, max-age=31536000, immutable") // tiles are content-addressed
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.body)
}
