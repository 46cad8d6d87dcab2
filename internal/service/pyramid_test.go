package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestPyramidRouteAliasesLevel0 pins the compatibility contract: a z=0
// pyramid tile is byte-identical to the free-window route's tile over
// the same lattice window, and the two share cache entries.
func TestPyramidRouteAliasesLevel0(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, TileEdge: 64})
	id := postScene(t, ts, fixtureHomog)

	old, oldCache := getTile(t, ts, "/v1/scene/"+id+"/tile/0,0,64x64?seed=5")
	viaZ, zCache := getTile(t, ts, "/v1/scene/"+id+"/tile/0/0,0?seed=5")
	if !bytes.Equal(old, viaZ) {
		t.Error("z=0 pyramid tile differs from free-window route bytes")
	}
	if oldCache != "miss" || zCache != "hit" {
		t.Errorf("X-Cache sequence %q, %q; want miss then hit — the routes must share cache entries", oldCache, zCache)
	}

	// Off-origin tile coordinates address multiples of TileEdge.
	shifted, _ := getTile(t, ts, "/v1/scene/"+id+"/tile/0/-1,2?seed=5")
	direct, _ := getTile(t, ts, "/v1/scene/"+id+"/tile/-64,128,64x64?seed=5")
	if !bytes.Equal(shifted, direct) {
		t.Error("tile (-1,2) differs from window (-64,128,64x64)")
	}
}

// TestPyramidLevelsDifferAndAreDeterministic: coarser levels render a
// different (decimated) lattice, deterministically.
func TestPyramidLevelsDifferAndAreDeterministic(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, TileEdge: 64})
	id := postScene(t, ts, fixtureHomog)

	z0, _ := getTile(t, ts, "/v1/scene/"+id+"/tile/0/0,0?seed=1")
	z2a, _ := getTile(t, ts, "/v1/scene/"+id+"/tile/2/0,0?seed=1")
	z2b, _ := getTile(t, ts, "/v1/scene/"+id+"/tile/2/0,0?seed=1")
	if len(z2a) != 64*64*4 {
		t.Fatalf("z=2 tile is %d bytes, want %d", len(z2a), 64*64*4)
	}
	if !bytes.Equal(z2a, z2b) {
		t.Error("z=2 tile not deterministic")
	}
	if bytes.Equal(z0, z2a) {
		t.Error("z=2 tile identical to z=0; level ignored")
	}

	// The inhomogeneous engine serves levels too (weight maps re-derived
	// at the decimated spacing).
	pid := postScene(t, ts, fixturePlate)
	p2, _ := getTile(t, ts, "/v1/scene/"+pid+"/tile/2/0,0?seed=1")
	if len(p2) != 64*64*4 {
		t.Fatalf("plate z=2 tile is %d bytes, want %d", len(p2), 64*64*4)
	}
}

// TestPyramidHeadersAndValidation covers the new route's headers
// (X-RRS-Level, Link prefetch hints) and its client-error paths.
func TestPyramidHeadersAndValidation(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, TileEdge: 64, MaxLevel: 4})
	id := postScene(t, ts, fixtureHomog)

	resp, err := http.Get(ts.URL + "/v1/scene/" + id + "/tile/1/3,-2?seed=9")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("z=1 tile: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-RRS-Level"); got != "1" {
		t.Errorf("X-RRS-Level = %q, want 1", got)
	}
	if got := resp.Header.Get("X-RRS-Window"); got != "192,-128,64x64" {
		t.Errorf("X-RRS-Window = %q, want 192,-128,64x64", got)
	}
	links := resp.Header.Values("Link")
	if len(links) != 4 {
		t.Fatalf("got %d Link headers, want 4: %q", len(links), links)
	}
	for _, want := range []string{"/tile/1/2,-2", "/tile/1/4,-2", "/tile/1/3,-3", "/tile/1/3,-1"} {
		found := false
		for _, l := range links {
			if strings.Contains(l, want) && strings.Contains(l, `rel=prefetch`) && strings.Contains(l, "seed=9") {
				found = true
			}
		}
		if !found {
			t.Errorf("no prefetch Link hint for %s in %q", want, links)
		}
	}

	for _, path := range []string{
		"/tile/5/0,0",   // beyond MaxLevel
		"/tile/-1/0,0",  // negative level
		"/tile/x/0,0",   // non-numeric level
		"/tile/1/0",     // missing y
		"/tile/1/a,b",   // non-numeric coords
		"/tile/1/0,0,0", // trailing junk in y
	} {
		resp, err := http.Get(ts.URL + "/v1/scene/" + id + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestPerLevelMetrics asserts /metrics exposes hit/miss counters per
// pyramid level (the zoom-walk observability the pyramid exists for).
func TestPerLevelMetrics(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, TileEdge: 32, PrefetchQueue: -1})
	id := postScene(t, ts, fixtureHomog)

	getTile(t, ts, "/v1/scene/"+id+"/tile/2/0,0?seed=1") // miss
	getTile(t, ts, "/v1/scene/"+id+"/tile/2/0,0?seed=1") // hit
	getTile(t, ts, "/v1/scene/"+id+"/tile/0/0,0?seed=1") // miss

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`rrsd_tile_level_hits_total{level="2"} 1`,
		`rrsd_tile_level_misses_total{level="2"} 1`,
		`rrsd_tile_level_hits_total{level="0"} 0`,
		`rrsd_tile_level_misses_total{level="0"} 1`,
		`rrsd_prefetch_dropped_total 0`,
		`rrsd_tile_cache_pinned_bytes`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Untouched levels stay out of the scrape (bounded cardinality).
	if strings.Contains(out, `level="5"`) {
		t.Error("metrics emit counters for levels with no traffic")
	}
}

// TestPinnedLevelAdmission: tiles at levels >= PinLevel land in the
// pinned tier and survive a flood of level-0 tiles through the main
// tier.
func TestPinnedLevelAdmission(t *testing.T) {
	// Main budget fits ~2 tiles of 32×32×4 = 4096 bytes (+overhead);
	// pinned budget holds the coarse tile.
	s, ts := testServer(t, Config{
		Workers: 2, TileEdge: 32, PinLevel: 2,
		CacheBytes: 10000, PinCacheBytes: 10000, PrefetchQueue: -1,
	})
	id := postScene(t, ts, fixtureHomog)

	getTile(t, ts, "/v1/scene/"+id+"/tile/3/0,0?seed=1")
	if got := s.cache.pinnedLen(); got != 1 {
		t.Fatalf("pinned tier holds %d entries after a z=3 render, want 1", got)
	}
	for i := 0; i < 6; i++ {
		getTile(t, ts, fmt.Sprintf("/v1/scene/%s/tile/0/%d,0?seed=1", id, i))
	}
	if _, cache := getTile(t, ts, "/v1/scene/"+id+"/tile/3/0,0?seed=1"); cache != "hit" {
		t.Error("pinned z=3 tile evicted by level-0 churn")
	}
}

// neighborCacheKey computes the cache key the prefetcher uses for a
// pyramid neighbor, for white-box cache probing.
func neighborCacheKey(s *Server, id string, z int, x, y int64, seed uint64) string {
	edge := s.cfg.TileEdge
	win := window{x0: x * int64(edge), y0: y * int64(edge), nx: edge, ny: edge}
	return cacheKey(id, z, seed, win, formatF32, "f64")
}

// TestPrefetchWarmsNeighbors: after serving a pyramid tile, the four
// lattice neighbors appear in the cache without any further requests.
func TestPrefetchWarmsNeighbors(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2, TileEdge: 32})
	id := postScene(t, ts, fixtureHomog)

	getTile(t, ts, "/v1/scene/"+id+"/tile/1/0,0?seed=1")
	deadline := time.Now().Add(10 * time.Second)
	neighbors := [][2]int64{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}
	for {
		warm := 0
		for _, nb := range neighbors {
			if s.cache.contains(neighborCacheKey(s, id, 1, nb[0], nb[1], 1)) {
				warm++
			}
		}
		if warm == len(neighbors) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d neighbors prefetched within deadline", warm, len(neighbors))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A client following the Link hint gets a hit.
	if _, cache := getTile(t, ts, "/v1/scene/"+id+"/tile/1/1,0?seed=1"); cache != "hit" {
		t.Error("prefetched neighbor served as a miss")
	}
}

// TestPrefetchSaturationKeepsForegroundFast is the satellite
// saturation test: with the prefetch worker jammed and its queue full,
// prefetch jobs are shed — and foreground tile latency is unaffected.
func TestPrefetchSaturationKeepsForegroundFast(t *testing.T) {
	s, ts := testServer(t, Config{
		Workers: 2, QueueDepth: 4, TileEdge: 32,
		PrefetchWorkers: 1, PrefetchQueue: 1,
	})
	id := postScene(t, ts, fixtureHomog)

	// Pay one-time kernel design before measuring latencies.
	getTile(t, ts, "/v1/scene/"+id+"/tile/1/100,100?seed=1")

	// The warm-up tile queued prefetches of its own neighbours; jam the
	// worker once the one-slot queue has room, behind them.
	block := make(chan struct{})
	started := make(chan struct{})
	deadline := time.Now().Add(10 * time.Second)
	for !s.prefetch.TrySubmit(func() { close(started); <-block }) {
		if time.Now().After(deadline) {
			t.Fatal("failed to occupy the prefetch worker")
		}
		time.Sleep(time.Millisecond)
	}
	<-started
	if !s.prefetch.TrySubmit(func() {}) {
		t.Fatal("failed to fill the prefetch queue slot")
	}
	defer close(block)

	droppedBefore := s.met.prefetchDropped.Load()
	for i := 0; i < 4; i++ {
		begin := time.Now()
		body, cache := getTile(t, ts, fmt.Sprintf("/v1/scene/%s/tile/1/%d,0?seed=1", id, i))
		if len(body) != 32*32*4 || cache != "miss" {
			t.Fatalf("foreground tile %d: %d bytes, cache %q", i, len(body), cache)
		}
		// Generous bound: a fresh 32×32 render is milliseconds; only a
		// foreground path blocked behind prefetch could approach it.
		if elapsed := time.Since(begin); elapsed > 2*time.Second {
			t.Errorf("foreground tile %d took %s while prefetch saturated", i, elapsed)
		}
	}
	if dropped := s.met.prefetchDropped.Load() - droppedBefore; dropped == 0 {
		t.Error("prefetch queue full but no jobs were shed")
	}
}
