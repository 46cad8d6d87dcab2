package service

// Cluster serving: the peer-fetch proxy path and scene-registration
// fan-out (DESIGN.md §16). Tiles are deterministic, so sharding is a
// cache-locality policy, not a correctness mechanism: a tile request
// landing on a non-owner first asks the owning shard (whose LRU is the
// authoritative hot cache for that key) and falls back to rendering
// locally the moment the owner is down, shedding, or slow — every node
// can serve any tile, byte-identically, at worst paying a redundant
// render.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"roughsurface/internal/cluster"
)

const (
	// headerPeer marks a proxied tile request with the sender's node
	// name. The receiver serves it locally (never re-proxies: no
	// forwarding loops) and rejects it with 503 while draining.
	headerPeer = "X-RRS-Peer"
	// headerReplicated marks a fanned-out scene registration so the
	// receiver does not fan out again.
	headerReplicated = "X-RRS-Replicated"
	// headerShard reports the owning shard of the requested tile key
	// under the current membership view.
	headerShard = "X-RRS-Shard"
	// headerServedBy reports the node that actually produced (rendered
	// or cache-served) the response bytes.
	headerServedBy = "X-RRS-Served-By"
)

// maxPeerTileBody bounds a proxied tile response body: the largest
// legal tile is MaxTileSamples float32 samples, and PNG encodings of
// the same windows are smaller; 4 bytes per sample plus slack covers
// every legitimate response.
func (s *Server) maxPeerTileBody() int64 {
	return int64(s.cfg.MaxTileSamples)*4 + 1<<16
}

// peerResult is the outcome of one proxied tile fetch.
type peerResult struct {
	body       []byte
	ctype      string
	ownerCache string // the owner's X-Cache (hit/miss) for per-peer counters
	status     int    // non-200 status from the owner, 0 on transport error
	err        error  // transport error (owner unreachable)
}

// flight is one in-progress peer fetch, shared by every concurrent
// request for the same tile key (singleflight): the first caller
// dials, the rest park on done and reuse the result.
type flight struct {
	done chan struct{}
	res  peerResult
}

// peerFetch proxies one tile request to its owning shard, coalescing
// concurrent fetches of the same key. ctx bounds the dial and body
// read for the leader, and the wait for followers.
func (s *Server) peerFetch(ctx context.Context, owner cluster.Peer, uri, key string) peerResult {
	s.flightMu.Lock()
	if f, ok := s.flights[key]; ok {
		s.flightMu.Unlock()
		select {
		case <-f.done:
			return f.res
		case <-ctx.Done():
			return peerResult{err: ctx.Err()}
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.flightMu.Unlock()

	f.res = s.peerFetchOnce(ctx, owner, uri)
	s.flightMu.Lock()
	delete(s.flights, key)
	s.flightMu.Unlock()
	close(f.done)
	return f.res
}

func (s *Server) peerFetchOnce(ctx context.Context, owner cluster.Peer, uri string) peerResult {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner.URL+uri, nil)
	if err != nil {
		return peerResult{err: err}
	}
	req.Header.Set(headerPeer, s.cluster.Self())
	resp, err := s.peerClient.Do(req)
	if err != nil {
		return peerResult{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Drain a bounded slug so the connection can be reused.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return peerResult{status: resp.StatusCode}
	}
	// Read one byte past the bound so an oversized body is seen as such
	// (and rejected by fetchFromOwner) rather than silently truncated.
	body, err := io.ReadAll(io.LimitReader(resp.Body, s.maxPeerTileBody()+1))
	if err != nil {
		return peerResult{err: err}
	}
	return peerResult{
		body:       body,
		ctype:      resp.Header.Get("Content-Type"),
		ownerCache: resp.Header.Get("X-Cache"),
		status:     http.StatusOK,
	}
}

// fetchFromOwner tries to fetch the tile from its owning shard,
// returning the entry to serve plus the owner's cache disposition. A
// false return means the caller must fall back to a local render (the
// per-peer fallback counter has already been incremented with the
// reason). Bodies fail closed: one over the size bound, or an f32 body
// (wantLen > 0) that is not exactly wantLen bytes, counts
// fallback_corrupt and is neither served nor cached. Verified proxied
// bodies are cached locally too: the owner's LRU stays the
// authoritative hot cache, but repeat traffic through this node
// becomes a local hit.
func (s *Server) fetchFromOwner(ctx context.Context, uri string, owner cluster.Peer, key string, wantLen int) (*cacheEntry, string, bool) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	res := s.peerFetch(ctx, owner, uri, key)
	switch {
	case res.err != nil:
		// Unreachable: mark it down now (the prober will confirm) so
		// the very next request routes around it.
		s.cluster.MarkAlive(owner.Name, false)
		s.met.countPeer(owner.Name, "fallback_down")
		return nil, "", false
	case res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable:
		// The owner is shedding or draining; it is alive, just busy.
		s.met.countPeer(owner.Name, "fallback_shed")
		return nil, "", false
	case res.status != http.StatusOK:
		s.met.countPeer(owner.Name, "fallback_error")
		return nil, "", false
	case int64(len(res.body)) > s.maxPeerTileBody() || (wantLen > 0 && len(res.body) != wantLen):
		s.met.countPeer(owner.Name, "fallback_corrupt")
		return nil, "", false
	}
	if res.ownerCache == "hit" {
		s.met.countPeer(owner.Name, "proxy_hit")
	} else {
		s.met.countPeer(owner.Name, "proxy_miss")
	}
	s.cache.add(&cacheEntry{key: key, body: res.body, ctype: res.ctype})
	return &cacheEntry{body: res.body, ctype: res.ctype}, res.ownerCache, true
}

// fanoutTimeout bounds the whole scene-registration fan-out.
const fanoutTimeout = 5 * time.Second

// fanoutScene replicates a freshly-registered scene's canonical JSON
// to every other peer so any node can serve its tiles. Content
// addressing makes replication idempotent (re-posting is a no-op with
// the same ID), so failures are tolerable: they are counted per peer
// and the local registration still succeeds — an operator retry or the
// next registration through any node converges the fleet.
func (s *Server) fanoutScene(ctx context.Context, canonical []byte) int {
	ctx, cancel := context.WithTimeout(ctx, fanoutTimeout)
	defer cancel()
	replicated := 0
	for _, p := range s.cluster.Snapshot().Peers {
		if p.Name == s.cluster.Self() {
			continue
		}
		if err := s.postScenePeer(ctx, p.URL, canonical); err != nil {
			s.met.countPeer(p.Name, "fanout_error")
			continue
		}
		replicated++
	}
	return replicated
}

func (s *Server) postScenePeer(ctx context.Context, baseURL string, canonical []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/scene",
		strings.NewReader(string(canonical)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(headerReplicated, s.cluster.Self())
	resp, err := s.peerClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("service: peer scene post: %d", resp.StatusCode)
	}
	return nil
}

// handleCluster is GET /v1/cluster: the epoch-stamped membership view.
func (s *Server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, "not clustered (no -peers configured)")
		return
	}
	writeJSON(w, http.StatusOK, s.cluster.Snapshot())
}
