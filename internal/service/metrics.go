package service

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"roughsurface/internal/core"
)

// metrics is the daemon's hand-rolled instrumentation, exposed in
// Prometheus text format on /metrics. No client library: the set of
// series is small and fixed, and counters/gauges are plain atomics, so
// the scrape path allocates only the rendered text.
type metrics struct {
	mu       sync.Mutex
	requests map[reqKey]*uint64  // by (route, status code)
	peerOps  map[peerKey]*uint64 // cluster traffic by (peer, op)

	inflight    atomic.Int64
	latency     histogram
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	tileShed    atomic.Uint64 // admissions refused (429)
	tileExpired atomic.Uint64 // deadline passed while queued/rendering (503)

	// Per-pyramid-level tile cache traffic. Fixed arrays (levels are
	// bounded by core.MaxPyramidLevel) keep the hot path lock-free;
	// only levels with traffic are emitted, so cardinality tracks use.
	levelHits   [core.MaxPyramidLevel + 1]atomic.Uint64
	levelMisses [core.MaxPyramidLevel + 1]atomic.Uint64

	prefetchRendered atomic.Uint64 // neighbor tiles rendered into the cache
	prefetchDropped  atomic.Uint64 // prefetch queue full, job shed
	prefetchSkipped  atomic.Uint64 // job yielded to waiting foreground renders
}

type reqKey struct {
	route string
	code  int
}

// peerKey labels one cluster counter: op is one of proxy_hit,
// proxy_miss (successful proxied fetches, split by the owner's cache
// state), fallback_down, fallback_shed, fallback_error, fallback_corrupt
// (local renders after the owner was unreachable, shedding, erroring,
// or sent a body of the wrong size), and fanout_error (scene
// replication to that peer failed). Cardinality is bounded by the
// static peer set times seven ops.
type peerKey struct {
	peer string
	op   string
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[reqKey]*uint64),
		peerOps:  make(map[peerKey]*uint64),
		latency:  newHistogram(),
	}
}

func (m *metrics) countRequest(route string, code int) {
	m.mu.Lock()
	c := m.requests[reqKey{route, code}]
	if c == nil {
		c = new(uint64)
		m.requests[reqKey{route, code}] = c
	}
	*c++
	m.mu.Unlock()
}

func (m *metrics) countPeer(peer, op string) {
	m.mu.Lock()
	c := m.peerOps[peerKey{peer, op}]
	if c == nil {
		c = new(uint64)
		m.peerOps[peerKey{peer, op}] = c
	}
	*c++
	m.mu.Unlock()
}

// histogram accumulates request latencies into fixed cumulative
// buckets. Sums are kept as integer microseconds so observation needs
// no float atomics.
type histogram struct {
	bounds    []float64 // upper bounds in seconds, ascending
	counts    []atomic.Uint64
	sumMicros atomic.Int64
	count     atomic.Uint64
}

// latencyBounds spans sub-millisecond cache hits to multi-second
// first-render kernel designs.
var latencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func newHistogram() histogram {
	return histogram{bounds: latencyBounds, counts: make([]atomic.Uint64, len(latencyBounds))}
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	for i, b := range h.bounds {
		if s <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.sumMicros.Add(d.Microseconds())
	h.count.Add(1)
}

// gaugeFn lets the scrape read live values (queue depth, cache bytes)
// owned by other components without metric push wiring.
type gaugeFn struct {
	name, help string
	read       func() int64
}

// writePrometheus renders everything in the text exposition format.
// Map series are sorted so consecutive scrapes are diffable.
func (m *metrics) writePrometheus(w io.Writer, gauges []gaugeFn) {
	m.mu.Lock()
	keys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	vals := make([]uint64, len(keys))
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].code < keys[j].code
	})
	for i, k := range keys {
		vals[i] = *m.requests[k]
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP rrsd_requests_total HTTP requests by route and status code.\n")
	fmt.Fprintf(w, "# TYPE rrsd_requests_total counter\n")
	for i, k := range keys {
		fmt.Fprintf(w, "rrsd_requests_total{route=%q,code=\"%d\"} %d\n", k.route, k.code, vals[i])
	}

	fmt.Fprintf(w, "# HELP rrsd_request_seconds Tile request latency (admission to response body ready).\n")
	fmt.Fprintf(w, "# TYPE rrsd_request_seconds histogram\n")
	var cum uint64
	for i, b := range m.latency.bounds {
		cum += m.latency.counts[i].Load()
		fmt.Fprintf(w, "rrsd_request_seconds_bucket{le=%q} %d\n", formatBound(b), cum)
	}
	total := m.latency.count.Load()
	fmt.Fprintf(w, "rrsd_request_seconds_bucket{le=\"+Inf\"} %d\n", total)
	fmt.Fprintf(w, "rrsd_request_seconds_sum %g\n", float64(m.latency.sumMicros.Load())/1e6)
	fmt.Fprintf(w, "rrsd_request_seconds_count %d\n", total)

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("rrsd_tile_cache_hits_total", "Tile responses served from the LRU.", m.cacheHits.Load())
	counter("rrsd_tile_cache_misses_total", "Tile responses rendered on demand.", m.cacheMisses.Load())
	counter("rrsd_tiles_shed_total", "Tile requests refused with 429 at admission.", m.tileShed.Load())
	counter("rrsd_tiles_deadline_total", "Tile requests that hit the per-request deadline (503).", m.tileExpired.Load())

	fmt.Fprintf(w, "# HELP rrsd_tile_level_hits_total Tile cache hits by pyramid level.\n")
	fmt.Fprintf(w, "# TYPE rrsd_tile_level_hits_total counter\n")
	for z := range m.levelHits {
		if v := m.levelHits[z].Load(); v > 0 || m.levelMisses[z].Load() > 0 {
			fmt.Fprintf(w, "rrsd_tile_level_hits_total{level=\"%d\"} %d\n", z, v)
		}
	}
	fmt.Fprintf(w, "# HELP rrsd_tile_level_misses_total Tile cache misses by pyramid level.\n")
	fmt.Fprintf(w, "# TYPE rrsd_tile_level_misses_total counter\n")
	for z := range m.levelMisses {
		if v := m.levelMisses[z].Load(); v > 0 || m.levelHits[z].Load() > 0 {
			fmt.Fprintf(w, "rrsd_tile_level_misses_total{level=\"%d\"} %d\n", z, v)
		}
	}

	counter("rrsd_prefetch_rendered_total", "Neighbor tiles prefetched into the cache.", m.prefetchRendered.Load())
	counter("rrsd_prefetch_dropped_total", "Prefetch jobs shed at the queue.", m.prefetchDropped.Load())
	counter("rrsd_prefetch_skipped_total", "Prefetch jobs that yielded to foreground renders.", m.prefetchSkipped.Load())

	m.writePeerOps(w)

	fmt.Fprintf(w, "# HELP rrsd_inflight_requests Requests currently being handled.\n")
	fmt.Fprintf(w, "# TYPE rrsd_inflight_requests gauge\nrrsd_inflight_requests %d\n", m.inflight.Load())
	for _, g := range gauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.read())
	}
}

// writePeerOps renders the cluster traffic counters, sorted by
// (peer, op) so consecutive scrapes are diffable. The op space splits
// into three metric families to keep Prometheus label semantics clean:
// proxy results, fallback reasons, and fan-out errors.
func (m *metrics) writePeerOps(w io.Writer) {
	m.mu.Lock()
	keys := make([]peerKey, 0, len(m.peerOps))
	for k := range m.peerOps {
		keys = append(keys, k)
	}
	vals := make(map[peerKey]uint64, len(keys))
	for _, k := range keys {
		vals[k] = *m.peerOps[k]
	}
	m.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].peer != keys[j].peer {
			return keys[i].peer < keys[j].peer
		}
		return keys[i].op < keys[j].op
	})
	if len(keys) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP rrsd_cluster_proxy_total Tile fetches proxied to their owning shard, by owner and its cache result.\n")
	fmt.Fprintf(w, "# TYPE rrsd_cluster_proxy_total counter\n")
	for _, k := range keys {
		if op, ok := strings.CutPrefix(k.op, "proxy_"); ok {
			fmt.Fprintf(w, "rrsd_cluster_proxy_total{peer=%q,result=%q} %d\n", k.peer, op, vals[k])
		}
	}
	fmt.Fprintf(w, "# HELP rrsd_cluster_fallback_total Local renders after the owning shard was unavailable or sent a corrupt body, by owner and reason.\n")
	fmt.Fprintf(w, "# TYPE rrsd_cluster_fallback_total counter\n")
	for _, k := range keys {
		if reason, ok := strings.CutPrefix(k.op, "fallback_"); ok {
			fmt.Fprintf(w, "rrsd_cluster_fallback_total{peer=%q,reason=%q} %d\n", k.peer, reason, vals[k])
		}
	}
	fmt.Fprintf(w, "# HELP rrsd_cluster_fanout_errors_total Scene replications to a peer that failed.\n")
	fmt.Fprintf(w, "# TYPE rrsd_cluster_fanout_errors_total counter\n")
	for _, k := range keys {
		if k.op == "fanout_error" {
			fmt.Fprintf(w, "rrsd_cluster_fanout_errors_total{peer=%q} %d\n", k.peer, vals[k])
		}
	}
}

// formatBound renders bucket bounds the way Prometheus expects
// (shortest decimal, no exponent for these magnitudes).
func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}
