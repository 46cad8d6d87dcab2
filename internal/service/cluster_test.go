package service

// Cluster-mode integration tests: real two-node fleets over httptest,
// plus fake owners for each peer-failure path (down at startup, dying
// mid-request, shedding). Probers are never started — tests set
// membership and liveness explicitly, so nothing here depends on
// timers.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"roughsurface/internal/cluster"
	"roughsurface/internal/par"
)

// readAll drains and closes a response body.
func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	b, err := readAllErr(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func readAllErr(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// fleetNode is one member of an in-process test fleet.
type fleetNode struct {
	s  *Server
	ts *httptest.Server
	cl *cluster.Cluster
}

// testFleet boots one real clustered Server per name and points them
// at each other. The prober is not started: liveness changes only via
// MarkAlive or the request path.
func testFleet(t *testing.T, names []string, cfg Config) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, len(names))
	for i, name := range names {
		cl := cluster.New(name, nil, cluster.Options{})
		c := cfg
		c.Cluster = cl
		s := New(c)
		ts := httptest.NewServer(s.Handler())
		nodes[i] = &fleetNode{s: s, ts: ts, cl: cl}
	}
	peers := make([]cluster.Peer, len(names))
	for i, n := range nodes {
		peers[i] = cluster.Peer{Name: names[i], URL: n.ts.URL}
	}
	for _, n := range nodes {
		n.cl.SetPeers(peers)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.ts.Close()
			n.s.Close()
			n.cl.Close()
		}
	})
	return nodes
}

// newClusteredServer boots one real clustered Server whose peer set is
// itself plus the given (possibly fake) peers.
func newClusteredServer(t *testing.T, name string, others []cluster.Peer, cfg Config) (*Server, *httptest.Server, *cluster.Cluster) {
	t.Helper()
	cl := cluster.New(name, nil, cluster.Options{})
	cfg.Cluster = cl
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close(); cl.Close() })
	cl.SetPeers(append([]cluster.Peer{{Name: name, URL: ts.URL}}, others...))
	return s, ts, cl
}

// testWin is the window every cluster test requests.
var testWin = window{x0: -16, y0: -16, nx: 32, ny: 32}

// seedOwnedBy scans seeds from start until the tile key for testWin
// hashes to the wanted owner under cl's current view.
func seedOwnedBy(t *testing.T, cl *cluster.Cluster, id, owner string, start uint64) uint64 {
	t.Helper()
	for seed := start; seed <= start+512; seed++ {
		key := cacheKey(id, 0, seed, testWin, "f32", "f64")
		if p, ok := cl.Owner(key); ok && p.Name == owner {
			return seed
		}
	}
	t.Fatalf("no seed in %d..%d hashes to owner %s", start, start+512, owner)
	return 0
}

func tilePath(id string, seed uint64) string {
	return fmt.Sprintf("/v1/scene/%s/tile/%d,%d,%dx%d?seed=%d",
		id, testWin.x0, testWin.y0, testWin.nx, testWin.ny, seed)
}

// getTileResp fetches a tile and returns the full response plus body.
func getTileResp(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	return resp, body
}

func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	return string(readAll(t, resp))
}

// TestClusterProxyByteIdentical is the sharding contract: a tile
// fetched through a non-owner is proxied to the owning shard and is
// byte-identical to both the owner's direct response and a standalone
// server's render. The proxied body is cached locally, so the repeat
// fetch is a local hit.
func TestClusterProxyByteIdentical(t *testing.T) {
	nodes := testFleet(t, []string{"a", "b"}, Config{Workers: 2})
	a, b := nodes[0], nodes[1]
	id := postScene(t, a.ts, fixtureHomog)
	seed := seedOwnedBy(t, a.cl, id, "b", 1)

	resp, viaA := getTileResp(t, a.ts, tilePath(id, seed))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied tile: %d %s", resp.StatusCode, viaA)
	}
	if got := resp.Header.Get("X-RRS-Shard"); got != "b" {
		t.Errorf("X-RRS-Shard = %q, want b", got)
	}
	if got := resp.Header.Get("X-RRS-Served-By"); got != "b" {
		t.Errorf("X-RRS-Served-By = %q, want b", got)
	}

	direct, _ := getTile(t, b.ts, tilePath(id, seed))
	_, single := testServer(t, Config{Workers: 2})
	sid := postScene(t, single, fixtureHomog)
	if sid != id {
		t.Fatalf("standalone scene id %s, fleet %s", sid, id)
	}
	alone, _ := getTile(t, single, tilePath(id, seed))
	if string(viaA) != string(direct) || string(viaA) != string(alone) {
		t.Fatal("proxied tile bytes differ from owner/standalone render")
	}

	if m := metricsText(t, a.ts); !strings.Contains(m, `rrsd_cluster_proxy_total{peer="b",result="miss"}`) {
		t.Errorf("node a metrics missing proxy miss counter:\n%s", m)
	}
	resp, again := getTileResp(t, a.ts, tilePath(id, seed))
	if string(again) != string(viaA) || resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("repeat fetch through non-owner: X-Cache=%q, want local hit with same bytes",
			resp.Header.Get("X-Cache"))
	}
}

// TestClusterFanoutReplicates: registering on one node makes the scene
// servable on every node, and the registrar reports the fan-out count.
func TestClusterFanoutReplicates(t *testing.T) {
	nodes := testFleet(t, []string{"a", "b"}, Config{Workers: 1})
	a, b := nodes[0], nodes[1]

	resp, err := http.Post(a.ts.URL+"/v1/scene", "application/json", strings.NewReader(fixtureHomog))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ID         string `json:"id"`
		Replicated int    `json:"replicated"`
	}
	if err := json.Unmarshal(readAll(t, resp), &doc); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated || doc.Replicated != 1 {
		t.Fatalf("register: %d, replicated %d; want 201 with 1", resp.StatusCode, doc.Replicated)
	}

	got, err := http.Get(b.ts.URL + "/v1/scene/" + doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, got); got.StatusCode != http.StatusOK {
		t.Fatalf("scene on peer after fan-out: %d %s", got.StatusCode, body)
	}
}

// TestClusterFallbackOwnerDown: the owner was dead before the request
// (connection refused). The non-owner renders locally, counts a
// fallback_down for that peer, and marks it dead so the next request
// routes straight to self.
func TestClusterFallbackOwnerDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	deadURL := dead.URL
	dead.Close()

	_, ts, cl := newClusteredServer(t, "a", []cluster.Peer{{Name: "b", URL: deadURL}}, Config{Workers: 2})
	id := postScene(t, ts, fixtureHomog)
	seed := seedOwnedBy(t, cl, id, "b", 1)

	resp, body := getTileResp(t, ts, tilePath(id, seed))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tile with dead owner: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-RRS-Served-By"); got != "a" {
		t.Errorf("X-RRS-Served-By = %q, want local fallback by a", got)
	}
	if m := metricsText(t, ts); !strings.Contains(m, `rrsd_cluster_fallback_total{peer="b",reason="down"}`) {
		t.Errorf("metrics missing fallback_down counter:\n%s", m)
	}
	if n := cl.AliveCount(); n != 1 {
		t.Errorf("alive count after transport error = %d, want 1 (b marked dead)", n)
	}
	// The fan-out to the dead peer failed too, and was counted.
	if m := metricsText(t, ts); !strings.Contains(m, `rrsd_cluster_fanout_errors_total{peer="b"}`) {
		t.Errorf("metrics missing fanout error counter:\n%s", m)
	}
	// With b dead, ownership of a fresh key collapses onto self: no
	// proxy attempt, a plain local render. Start past the
	// already-cached seed — a cache hit never consults the shard map.
	seed2 := seedOwnedBy(t, cl, id, "a", seed+1)
	resp, _ = getTileResp(t, ts, tilePath(id, seed2))
	if got := resp.Header.Get("X-RRS-Shard"); got != "a" {
		t.Errorf("post-death shard = %q, want a", got)
	}
}

// TestClusterFallbackOwnerDiesMidRequest: the owner accepts the
// connection, then aborts it mid-response. Same contract as a dead
// owner: local render, fallback_down, peer marked dead.
func TestClusterFallbackOwnerDiesMidRequest(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "/tile/") {
			panic(http.ErrAbortHandler)
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(owner.Close)

	_, ts, cl := newClusteredServer(t, "a", []cluster.Peer{{Name: "b", URL: owner.URL}}, Config{Workers: 2})
	id := postScene(t, ts, fixtureHomog)
	seed := seedOwnedBy(t, cl, id, "b", 1)

	resp, body := getTileResp(t, ts, tilePath(id, seed))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tile with aborting owner: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-RRS-Served-By"); got != "a" {
		t.Errorf("X-RRS-Served-By = %q, want local fallback by a", got)
	}
	if m := metricsText(t, ts); !strings.Contains(m, `rrsd_cluster_fallback_total{peer="b",reason="down"}`) {
		t.Errorf("metrics missing fallback_down counter:\n%s", m)
	}
	if n := cl.AliveCount(); n != 1 {
		t.Errorf("alive count after mid-request abort = %d, want 1", n)
	}
}

// TestClusterFallbackOwnerSheds: the owner answers 429. The non-owner
// renders locally and counts fallback_shed — but the owner stays
// alive: it is busy, not gone, and must keep its ownership.
func TestClusterFallbackOwnerSheds(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "/tile/") {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(owner.Close)

	_, ts, cl := newClusteredServer(t, "a", []cluster.Peer{{Name: "b", URL: owner.URL}}, Config{Workers: 2})
	id := postScene(t, ts, fixtureHomog)
	seed := seedOwnedBy(t, cl, id, "b", 1)

	resp, body := getTileResp(t, ts, tilePath(id, seed))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tile with shedding owner: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-RRS-Served-By"); got != "a" {
		t.Errorf("X-RRS-Served-By = %q, want local fallback by a", got)
	}
	if m := metricsText(t, ts); !strings.Contains(m, `rrsd_cluster_fallback_total{peer="b",reason="shed"}`) {
		t.Errorf("metrics missing fallback_shed counter:\n%s", m)
	}
	if n := cl.AliveCount(); n != 2 {
		t.Errorf("alive count after shed = %d, want 2 (shedding is not death)", n)
	}
}

// TestClusterFallbackCorruptBody: the owner answers 200 with a body of
// the wrong size — an f32 tile a few bytes short, or a PNG tile over
// the proxied-body bound. The non-owner must not serve or cache it: it
// counts fallback_corrupt, renders locally, keeps the owner alive, and
// a repeat fetch is a local hit on the correct bytes.
func TestClusterFallbackCorruptBody(t *testing.T) {
	cfg := Config{Workers: 2, MaxTileSamples: testWin.nx * testWin.ny}
	_, single := testServer(t, Config{Workers: 2})
	sid := postScene(t, single, fixtureHomog)
	for _, tc := range []struct {
		name, format string
		body         func(s *Server) []byte
	}{
		{"truncated-f32", "f32", func(*Server) []byte { return make([]byte, 4*testWin.nx*testWin.ny-4) }},
		{"oversized-png", "png", func(s *Server) []byte { return make([]byte, s.maxPeerTileBody()+1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var body []byte
			owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.Contains(r.URL.Path, "/tile/") {
					w.Header().Set("X-Cache", "hit")
					_, _ = w.Write(body)
					return
				}
				w.WriteHeader(http.StatusOK)
			}))
			t.Cleanup(owner.Close)

			s, ts, cl := newClusteredServer(t, "a", []cluster.Peer{{Name: "b", URL: owner.URL}}, cfg)
			body = tc.body(s)
			id := postScene(t, ts, fixtureHomog)
			if id != sid {
				t.Fatalf("scene id %s, standalone %s", id, sid)
			}
			var path string
			for seed := uint64(1); seed <= 512 && path == ""; seed++ {
				if p, ok := cl.Owner(cacheKey(id, 0, seed, testWin, tc.format, "f64")); ok && p.Name == "b" {
					path = tilePath(id, seed) + "&format=" + tc.format
				}
			}
			if path == "" {
				t.Fatal("no seed hashes to owner b")
			}
			want, _ := getTile(t, single, path)

			for i, cache := range []string{"miss", "hit"} {
				resp, got := getTileResp(t, ts, path)
				if resp.StatusCode != http.StatusOK || string(got) != string(want) {
					t.Fatalf("fetch %d: status %d, %d bytes; want 200 with the standalone render's %d bytes",
						i, resp.StatusCode, len(got), len(want))
				}
				if sb, xc := resp.Header.Get("X-RRS-Served-By"), resp.Header.Get("X-Cache"); sb != "a" || xc != cache {
					t.Errorf("fetch %d: served by %q with X-Cache %q, want a with %s", i, sb, xc, cache)
				}
			}
			if m := metricsText(t, ts); !strings.Contains(m, `rrsd_cluster_fallback_total{peer="b",reason="corrupt"} 1`) {
				t.Errorf("metrics missing one fallback_corrupt:\n%s", m)
			}
			if n := cl.AliveCount(); n != 2 {
				t.Errorf("alive count after corrupt body = %d, want 2 (owner stays alive)", n)
			}
		})
	}
}

// TestClusterDrainRejectsPeerTraffic: a draining node sheds proxied
// requests (503 + Retry-After) and reads unhealthy, while direct
// clients are still served until the listener closes.
func TestClusterDrainRejectsPeerTraffic(t *testing.T) {
	s, ts, _ := newClusteredServer(t, "a", nil, Config{Workers: 2})
	id := postScene(t, ts, fixtureHomog)
	s.BeginDrain()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+tilePath(id, 1), nil)
	req.Header.Set(headerPeer, "b")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("peer-marked request while draining: %d (Retry-After %q) %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, hz)
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", hz.StatusCode)
	}

	direct, bodyDirect := getTileResp(t, ts, tilePath(id, 1))
	if direct.StatusCode != http.StatusOK || len(bodyDirect) == 0 {
		t.Errorf("direct client while draining: %d, want 200", direct.StatusCode)
	}
}

// TestClusterEndpointAndInfo: /v1/cluster serves the epoch-stamped
// membership view and /v1/info reports the fleet summary; both 404 /
// omit it on an unclustered daemon.
func TestClusterEndpointAndInfo(t *testing.T) {
	nodes := testFleet(t, []string{"a", "b"}, Config{Workers: 1, Flags: map[string]string{"workers": "1"}})
	a := nodes[0]

	resp, err := http.Get(a.ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var snap cluster.Snapshot
	if err := json.Unmarshal(readAll(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Self != "a" || len(snap.Peers) != 2 || snap.Epoch == 0 {
		t.Errorf("cluster snapshot: %+v", snap)
	}

	resp, err = http.Get(a.ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Go      string            `json:"go"`
		Flags   map[string]string `json:"flags"`
		Cluster *struct {
			Self  string `json:"self"`
			Peers int    `json:"peers"`
			Alive int    `json:"alive"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(readAll(t, resp), &info); err != nil {
		t.Fatal(err)
	}
	if info.Go == "" || info.Flags["workers"] != "1" {
		t.Errorf("info basics: %+v", info)
	}
	if info.Cluster == nil || info.Cluster.Self != "a" || info.Cluster.Peers != 2 || info.Cluster.Alive != 2 {
		t.Errorf("info cluster section: %+v", info.Cluster)
	}

	_, single := testServer(t, Config{Workers: 1})
	resp, err = http.Get(single.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/cluster unclustered = %d, want 404", resp.StatusCode)
	}
}

// TestClusterConcurrentProxySingleflight: concurrent fetches of one
// not-yet-cached tile through the non-owner all succeed with identical
// bytes — the singleflight path under the race detector.
func TestClusterConcurrentProxySingleflight(t *testing.T) {
	nodes := testFleet(t, []string{"a", "b"}, Config{Workers: 2})
	a := nodes[0]
	id := postScene(t, a.ts, fixtureHomog)
	seed := seedOwnedBy(t, a.cl, id, "b", 1)

	const n = 8
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var mu sync.Mutex
	par.ForEach(n, n, func(i int) {
		resp, err := http.Get(a.ts.URL + tilePath(id, seed))
		if err != nil {
			return
		}
		b, err := readAllErr(resp)
		if err != nil {
			return
		}
		mu.Lock()
		bodies[i], codes[i] = b, resp.StatusCode
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("request %d returned different bytes", i)
		}
	}
}
