package service

import (
	"container/list"
	"sync"
)

// tileCache is a byte-capacity-bounded LRU over encoded tile bodies.
// Keys are the full identity of a response — (sceneID, level, seed,
// window, format, precision) — so a hit can be streamed verbatim: tiles
// are deterministic functions of their key, which is what makes an LRU
// (rather than a TTL cache) the right shape; entries never go stale,
// they only get cold. Every level shares the one budget.
//
// Bodies are immutable after insertion: get returns the stored slice
// and callers must only read it.
type tileCache struct {
	mu       sync.Mutex
	capBytes int64 // <= 0 disables the cache
	used     int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
}

// cacheEntry is one encoded tile response.
type cacheEntry struct {
	key   string
	body  []byte
	ctype string
}

// entryOverhead approximates the fixed per-entry bookkeeping a cached
// tile costs beyond its strings: the cacheEntry struct, its
// list.Element, and the map bucket slot. Charged so a flood of tiny
// coarse-level tiles cannot blow past the configured budget on
// overhead the old body-bytes-only accounting never saw.
const entryOverhead = 128

// size is the bytes an entry is charged against the budget:
// payload plus key and content-type strings plus fixed overhead.
func (e *cacheEntry) size() int64 {
	return int64(len(e.body)) + int64(len(e.key)) + int64(len(e.ctype)) + entryOverhead
}

// newTileCache bounds the cache at capBytes. capBytes <= 0 disables
// caching entirely: every get misses, every add is dropped.
func newTileCache(capBytes int64) *tileCache {
	return &tileCache{
		capBytes: capBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

func (c *tileCache) get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// contains reports presence without touching recency — the prefetcher
// probes with it, and a probe is not a use.
func (c *tileCache) contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

func (c *tileCache) add(e *cacheEntry) {
	if c.capBytes <= 0 {
		return
	}
	size := e.size()
	if size > c.capBytes {
		return // a single over-capacity tile would evict everything for nothing
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.key]; ok {
		// Deterministic tiles: an existing entry is byte-identical, so
		// just refresh recency.
		c.ll.MoveToFront(el)
		return
	}
	c.items[e.key] = c.ll.PushFront(e)
	c.used += size
	for c.used > c.capBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		old := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, old.key)
		c.used -= old.size()
	}
}

// bytes reports the charged bytes, for the metrics gauge.
func (c *tileCache) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// len reports the entry count, for the metrics gauge.
func (c *tileCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
