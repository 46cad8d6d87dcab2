package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"roughsurface/internal/core"
)

// rrsdWorkload is a traffic mix against real rrsd processes.
type rrsdWorkload struct {
	name       string
	nodes      int
	gomaxprocs int     // per node; 0 = the host's
	cacheMB    int64   // tile cache budget; 0 = the daemon default
	openRate   float64 // aggregate open-loop rate, requests/s
	fixtures   []string
	levels     []int // pyramid levels served (warm-up); nil = free-window route only
	newStream  func(seed uint64, k int, scenes []*scene, nodes int) stream
	fleet      *rrsdWorkload // traced runs also drive this fleet variant
}

const (
	setupRounds = 5    // set-ups per run; setup_s is their median
	spotEvery   = 64   // about one response in this many is kept for the byte check
	maxSpot     = 48   // cap on byte-checked responses per phase
	openShare   = 0.75 // share of --seconds given to the open-loop phase
	warmSeed    = 1000
)

// probe windows: level-0 pyramid tiles of the homogeneous fixture at
// seed 1, whose pooled RMS height is compared with the target h.
const probeTiles = 4

// conns is the number of load connections: nproc, at most two.
func conns() int { return min(2, runtime.NumCPU()) }

// run is everything one run of an rrsd workload measured.
type rrsdRun struct {
	seed    uint64
	scenes  []*scene
	setupS  float64
	open    *phase
	closed  *phase
	dOpen   promSample
	dClosed promSample
	cpuMS   float64
	rssMB   float64
	probe   float64
	checks  int      // correctness checks made
	errs    []string // correctness failures
}

func (w *rrsdWorkload) run(env *env, seed uint64, seconds float64) (*rrsdRun, error) {
	res := &rrsdRun{seed: seed}
	for _, doc := range w.fixtures {
		sc, err := newScene(doc)
		if err != nil {
			return nil, err
		}
		res.scenes = append(res.scenes, sc)
	}
	rr := newRefRenderer()

	var f *fleet
	var setups []float64
	for round := 0; round < setupRounds; round++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		f, err = w.setup(env, res, rr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.setupS = median(setups)
	//lint:ignore detflow render seeds come from the generated requests; res only shares a struct with timings
	if err := errors.Join(w.measure(f, res, rr, seconds), f.stop()); err != nil {
		return nil, err
	}
	res.rssMB = f.peakRSSMB()
	return res, nil
}

// measure runs the open- and closed-loop phases against a set-up fleet,
// then the checks that need the daemons: counter reconciliation, the
// byte-for-byte spot check and the probe tiles.
func (w *rrsdWorkload) measure(f *fleet, res *rrsdRun, rr *refRenderer, seconds float64) error {
	urls := make([]string, len(f.nodes))
	for i, nd := range f.nodes {
		urls[i] = nd.url
	}
	var cs []*conn
	for k := 0; k < conns(); k++ {
		c := newConn(urls, w.newStream(res.seed, k, res.scenes, w.nodes), k, spotKeep(res.seed, spotEvery))
		defer c.close()
		cs = append(cs, c)
	}

	before, err := f.scrapeAll()
	if err != nil {
		return err
	}
	cpu0, err := f.cpuTicks()
	if err != nil {
		return err
	}
	qs := f.sampleQueues()
	openDur := time.Duration(seconds * openShare * float64(time.Second))
	res.open = runOpen(cs, w.openRate, openDur)
	mid, err := f.scrapeAll()
	if err != nil {
		return err
	}
	res.closed = runClosed(cs, time.Duration(seconds*float64(time.Second))-openDur)
	after, err := f.scrapeAll()
	if err != nil {
		return err
	}
	cpu1, err := f.cpuTicks()
	if err != nil {
		return err
	}
	if res.open.maxQueue, err = qs.stop(); err != nil {
		return fmt.Errorf("queue-depth sampling: %w", err)
	}
	res.cpuMS = float64(cpu1-cpu0) * 1000 / clockTicks
	res.dOpen, res.dClosed = delta(before, mid), delta(mid, after)
	res.check(reconcile("open", res.dOpen, res.open.samples))
	res.check(reconcile("closed", res.dClosed, res.closed.samples))

	// Byte-for-byte spot check of the kept responses.
	for _, p := range []*phase{res.open, res.closed} {
		n := 0
		for _, s := range p.samples {
			if s.body == nil || n >= maxSpot {
				continue
			}
			n++
			//lint:ignore detflow the spot check re-renders a generated request; its seed is not derived from timings
			res.check(compareRender(rr, s.req, s.body))
		}
	}

	//lint:ignore detflow probe tiles use fixed seeds; res only shares a struct with timings
	probe, err := w.probe(f, res.scenes[0], rr, res)
	if err != nil {
		return err
	}
	res.probe = probe
	return nil
}

// check records one correctness check; msg is empty when it passed.
func (r *rrsdRun) check(msg string) {
	r.checks++
	if msg != "" {
		r.errs = append(r.errs, msg)
	}
}

// setup starts the daemons and brings them to serving state: healthy,
// the golden scene ID and tile verified on every node, the workload's
// scenes registered, and one warm-up tile served per (scene, level) on
// every node, so kernel design happens here and not in the timed phases.
func (w *rrsdWorkload) setup(env *env, res *rrsdRun, rr *refRenderer) (*fleet, error) {
	var args []string
	if w.cacheMB > 0 {
		args = []string{"-cache-mb", fmt.Sprint(w.cacheMB)}
	}
	f, err := startFleet(env.rrsd, env.runDir, w.nodes, w.gomaxprocs, args)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*fleet, error) {
		return nil, errors.Join(err, f.stop())
	}
	for _, nd := range f.nodes {
		//lint:ignore detflow the golden check hashes served bytes; the environment only reaches the daemons
		msg, err := checkGolden(f, nd, res.scenes[0], rr)
		if err != nil {
			return fail(err)
		}
		res.check(msg)
		for _, sc := range res.scenes {
			id, err := f.postScene(nd, sc.doc)
			if err != nil {
				return fail(err)
			}
			if id != sc.id {
				res.check(fmt.Sprintf("%s: scene ID %s, want %s", nd.name, id, sc.id))
			}
		}
	}
	levels := w.levels
	if levels == nil {
		levels = []int{-1}
	}
	for _, nd := range f.nodes {
		for _, sc := range res.scenes {
			for _, z := range levels {
				if err := warm(f, nd, sc, z); err != nil {
					return fail(err)
				}
			}
		}
	}
	return f, nil
}

// warm serves one tile of (scene, level) rendered by nd itself: in a
// fleet it walks candidate tiles until nd owns one, so nd designs the
// level's kernels locally.
func warm(f *fleet, nd *node, sc *scene, level int) error {
	for x := int64(0); x < 64; x++ {
		r := request{scene: sc, level: level, x: 1000 + x, nx: 128, ny: 128,
			seed: warmSeed, format: "f32", prec: "f32"}
		if level >= 0 {
			r.nx, r.ny = 256, 256
		}
		resp, err := f.client.Get(nd.url + r.path())
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("warm-up tile on %s: %s", nd.name, resp.Status)
		}
		if shard := resp.Header.Get("X-RRS-Shard"); shard == "" || shard == nd.name {
			return nil
		}
	}
	return fmt.Errorf("warm-up on %s: no locally owned tile among 64 candidates", nd.name)
}

// checkGolden verifies the pinned scene ID and golden tile on nd. On
// amd64 the tile's SHA-256 is pinned; elsewhere it is compared with the
// in-process render.
func checkGolden(f *fleet, nd *node, homog *scene, rr *refRenderer) (string, error) {
	id, err := f.postScene(nd, []byte(fixtureHomog))
	if err != nil {
		return "", err
	}
	if id != goldenSceneID {
		return fmt.Sprintf("%s: fixture scene ID %s, want %s", nd.name, id, goldenSceneID), nil
	}
	code, body, err := f.get(nd.url + "/v1/scene/" + id + "/tile/" + goldenTile)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return fmt.Sprintf("%s: golden tile status %d", nd.name, code), nil
	}
	if runtime.GOARCH == "amd64" {
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != goldenTileSHA {
			return fmt.Sprintf("%s: golden tile SHA %s, want %s", nd.name, got, goldenTileSHA), nil
		}
		return "", nil
	}
	r := request{scene: homog, level: -1, nx: 64, ny: 64, seed: 1, format: "f32", prec: core.PrecisionF64}
	return compareRender(rr, r, body), nil
}

// compareRender checks body against the in-process render of r.
func compareRender(rr *refRenderer, r request, body []byte) string {
	want, err := rr.render(r, nil, 0, 0)
	if err != nil {
		return fmt.Sprintf("reference render of %s: %v", r.path(), err)
	}
	if string(want) != string(body) {
		return fmt.Sprintf("%s: served bytes differ from the in-process render", r.path())
	}
	return ""
}

// reconcile checks that the client's X-Cache counts, in total and per
// level, equal the fleet's rrsd_tile_cache_* and rrsd_tile_level_* deltas.
func reconcile(name string, d promSample, samples []sample) string {
	var hits, misses [core.MaxPyramidLevel + 1]int64
	for _, s := range samples {
		if s.code != http.StatusOK {
			continue
		}
		switch s.cache {
		case "hit":
			hits[s.req.cacheLevel()]++
		case "miss":
			misses[s.req.cacheLevel()]++
		}
	}
	var th, tm int64
	for z := range hits {
		th += hits[z]
		tm += misses[z]
		if got := d.count(fmt.Sprintf(`rrsd_tile_level_hits_total{level="%d"}`, z)); got != hits[z] {
			return fmt.Sprintf("%s phase: level %d hits: daemon counted %d, client saw %d", name, z, got, hits[z])
		}
		if got := d.count(fmt.Sprintf(`rrsd_tile_level_misses_total{level="%d"}`, z)); got != misses[z] {
			return fmt.Sprintf("%s phase: level %d misses: daemon counted %d, client saw %d", name, z, got, misses[z])
		}
	}
	dh, dm := d.count("rrsd_tile_cache_hits_total"), d.count("rrsd_tile_cache_misses_total")
	if dh != th || dm != tm {
		return fmt.Sprintf("%s phase: daemon counted %d hits / %d misses, client saw %d / %d", name, dh, dm, th, tm)
	}
	return ""
}

// probe fetches the probe tiles through the fleet, checks their bytes,
// and returns the pooled relative RMS height error against the target.
func (w *rrsdWorkload) probe(f *fleet, homog *scene, rr *refRenderer, res *rrsdRun) (float64, error) {
	var sumSq float64
	var n int
	for ty := int64(0); ty < probeTiles; ty++ {
		for tx := int64(0); tx < probeTiles; tx++ {
			r := request{scene: homog, level: 0, x: tx, y: ty, nx: 256, ny: 256,
				seed: 1, format: "f32", prec: core.PrecisionF64}
			nd := f.nodes[int(tx+ty)%len(f.nodes)]
			code, body, err := f.get(nd.url + r.path())
			if err != nil {
				return 0, err
			}
			if code != http.StatusOK || len(body) != 4*r.nx*r.ny {
				res.check(fmt.Sprintf("probe tile %s: status %d, %d bytes", r.path(), code, len(body)))
				continue
			}
			res.check(compareRender(rr, r, body))
			for i := 0; i < len(body); i += 4 {
				v := float64(math.Float32frombits(binary.LittleEndian.Uint32(body[i:])))
				sumSq += v * v
				n++
			}
		}
	}
	want := homog.sc.Spectrum.H
	return math.Abs(math.Sqrt(sumSq/float64(max(n, 1)))-want) / want, nil
}

// traceFile names the span dump of one traced run.
func traceFile(env *env, workload string, seed uint64) string {
	return filepath.Join(env.outDir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
}
