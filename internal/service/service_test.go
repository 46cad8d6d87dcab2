package service

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"roughsurface/internal/approx"
	"roughsurface/internal/convgen"
	"roughsurface/internal/core"
	"roughsurface/internal/grid"
	"roughsurface/internal/inhomo"
	"roughsurface/internal/par"
	"roughsurface/internal/simd"
)

// The request fixtures. scripts/check.sh and the core fuzz seeds use
// these same documents, so the whole stack — fuzzer, unit tests,
// integration tests, CI smoke — exercises one set of scenes.
const (
	fixtureHomog = `{"nx":64,"ny":64,"method":"homogeneous","spectrum":{"family":"gaussian","h":1,"cl":8}}`
	fixturePlate = `{"nx":64,"ny":64,"method":"plate","regions":[
	  {"shape":"rect","x1":0,"t":4,"spectrum":{"family":"gaussian","h":1,"cl":8}},
	  {"shape":"circle","cx":16,"cy":0,"r":20,"t":4,"spectrum":{"family":"exponential","h":2,"cl":5}}]}`
	fixturePoint = `{"nx":64,"ny":64,"method":"point","transition_t":10,"points":[
	  {"x":-20,"y":0,"spectrum":{"family":"gaussian","h":1,"cl":8}},
	  {"x":20,"y":0,"spectrum":{"family":"gaussian","h":2.5,"cl":8}}]}`
)

func TestSceneIDCanonicalization(t *testing.T) {
	parse := func(s string) core.Scene {
		sc, err := core.ParseScene([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	base := parse(fixtureHomog)
	id1, canonical, err := SceneID(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(id1) != sceneIDLen {
		t.Fatalf("scene id %q has length %d, want %d", id1, len(id1), sceneIDLen)
	}
	// Same scene, different formatting, reordered keys, defaults spelled
	// out: one ID.
	same := []string{
		"{\n  \"ny\": 64,\n  \"nx\": 64,\n  \"method\": \"homogeneous\",\n  \"spectrum\": {\"cl\": 10, \"family\": \"gaussian\", \"h\": 1}\n}",
		`{"nx":64,"ny":64,"dx":1,"dy":1,"seed":1,"generator":"conv","method":"homogeneous","spectrum":{"family":"gaussian","h":1,"cl":10}}`,
	}
	// Patch cl to match fixture (10 vs 8): use an actually-identical pair.
	same[0] = strings.ReplaceAll(same[0], "10", "8")
	same[1] = strings.ReplaceAll(same[1], "10", "8")
	for i, doc := range same {
		id2, _, err := SceneID(parse(doc))
		if err != nil {
			t.Fatal(err)
		}
		if id2 != id1 {
			t.Errorf("variant %d hashed to %s, want %s", i, id2, id1)
		}
	}
	// Different content: different ID.
	other, _, err := SceneID(parse(fixturePlate))
	if err != nil {
		t.Fatal(err)
	}
	if other == id1 {
		t.Error("distinct scenes share an ID")
	}
	// Canonical JSON re-parses to the same ID (fixed point).
	id3, _, err := SceneID(parse(string(canonical)))
	if err != nil {
		t.Fatal(err)
	}
	if id3 != id1 {
		t.Error("canonical JSON does not re-hash to the same ID")
	}
}

func TestRegistryRejectsDFTAndBounds(t *testing.T) {
	r := newRegistry(1)
	if _, _, err := r.register([]byte(`{"nx":64,"ny":64,"method":"homogeneous","generator":"dft",
		"spectrum":{"family":"gaussian","h":1,"cl":8}}`), 1); err == nil {
		t.Error("dft scene registered; want rejection")
	}
	if _, created, err := r.register([]byte(fixtureHomog), 1); err != nil || !created {
		t.Fatalf("first register: created=%v err=%v", created, err)
	}
	// Idempotent re-register of the same content succeeds even at cap.
	if _, created, err := r.register([]byte(fixtureHomog), 1); err != nil || created {
		t.Fatalf("re-register: created=%v err=%v; want existing entry", created, err)
	}
	if _, _, err := r.register([]byte(fixturePlate), 1); err != errRegistryFull {
		t.Errorf("register over cap: err=%v, want errRegistryFull", err)
	}
}

// TestLevelGeneratorServesEverySeed: one (scene, level) generator,
// reseeded per request, serves interleaved seeds concurrently, and every
// window is bit-identical to a render from a generator built for that
// seed alone — for both fixtures' levels 0 and 1 at both precisions,
// and for one kernel on the FFT engine.
func TestLevelGeneratorServesEverySeed(t *testing.T) {
	ctx := context.Background()
	r := newRegistry(4)
	win := window{x0: -40, y0: -24, nx: 96, ny: 80}
	type job struct {
		name   string
		shared func() (*tileGen, error) // the level generator, reseeded
		ref    *tileGen                 // built for the seed alone
		f32    bool
	}
	var jobs []job
	add := func(name string, shared func() (*tileGen, error), ref *tileGen) {
		for _, f32 := range []bool{false, true} {
			jobs = append(jobs, job{fmt.Sprintf("%s f32=%v", name, f32), shared, ref, f32})
		}
	}
	homog, _, err := r.register([]byte(fixtureHomog), 2)
	if err != nil {
		t.Fatal(err)
	}
	plate, _, err := r.register([]byte(fixturePlate), 2)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := homog.generator(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	k := lg.conv.Kernel()
	fftLevel := convgen.NewGenerator(k, 0)
	fftLevel.Engine = convgen.EngineFFT
	for _, seed := range []uint64{1, 2, 3, 1 << 40} {
		for _, e := range []*sceneEntry{homog, plate} {
			for level := 0; level <= 1; level++ {
				view, err := e.Scene.AtLevel(level)
				if err != nil {
					t.Fatal(err)
				}
				comp, err := view.Components()
				if err != nil {
					t.Fatal(err)
				}
				ref := &tileGen{workers: 2}
				if comp.Blender == nil {
					ref.conv = convgen.NewGenerator(comp.Kernels[0], seed)
				} else {
					ref.inhomo = inhomo.MustGenerator(comp.Kernels, comp.Blender, seed)
					ref.inhomo.Workers = 2
				}
				add(fmt.Sprintf("%s level %d seed %d", e.Scene.Method, level, seed),
					func() (*tileGen, error) { return e.generator(ctx, level, seed) }, ref)
			}
		}
		ref := &tileGen{conv: convgen.NewGenerator(k, seed), workers: 2}
		ref.conv.Engine = convgen.EngineFFT
		add(fmt.Sprintf("fft seed %d", seed),
			func() (*tileGen, error) { return &tileGen{conv: fftLevel.WithSeed(seed), workers: 2}, nil }, ref)
	}
	par.ForEach(len(jobs), 4, func(i int) {
		j := jobs[i]
		g, err := j.shared()
		if err != nil {
			t.Error(err)
			return
		}
		if !slices.Equal(renderBits(g, win, j.f32), renderBits(j.ref, win, j.f32)) {
			t.Errorf("%s: the shared level generator's window differs from a per-seed generator's", j.name)
		}
	})
}

// renderBits renders win at the requested precision and returns each
// sample's float64 bits (widening float32 is exact).
func renderBits(g *tileGen, win window, f32 bool) []uint64 {
	if f32 {
		return widenBits(renderWindow[float32](g, win))
	}
	return widenBits(renderWindow[float64](g, win))
}

func widenBits[F simd.Float](data []F) []uint64 {
	out := make([]uint64, len(data))
	for i, v := range data {
		out[i] = math.Float64bits(float64(v))
	}
	return out
}

func TestParseWindow(t *testing.T) {
	good := map[string]window{
		"0,0,64x64":      {0, 0, 64, 64},
		"-128,32,256x16": {-128, 32, 256, 16},
	}
	for in, want := range good {
		got, err := parseWindow(in)
		if err != nil || got != want {
			t.Errorf("parseWindow(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "0,0", "0,0,64", "0,0,64x", "a,0,64x64", "0,b,64x64", "0,0,0x64", "0,0,64x-1", "0,0,4.5x4"} {
		if _, err := parseWindow(in); err == nil {
			t.Errorf("parseWindow(%q) accepted", in)
		}
	}
}

func TestTileCacheEvictsByBytes(t *testing.T) {
	// Each entry charges body + key + ctype + entryOverhead = 300+1+0+128
	// = 429 bytes; a 1000-byte budget holds two but not three.
	c := newTileCache(1000)
	body := func(n int) []byte { return make([]byte, n) }
	c.add(&cacheEntry{key: "a", body: body(300)})
	c.add(&cacheEntry{key: "b", body: body(300)})
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted below capacity")
	}
	// "a" is now most-recent; the third entry evicts "b".
	c.add(&cacheEntry{key: "c", body: body(300)})
	if _, ok := c.get("b"); ok {
		t.Error("b survived past capacity")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("recently-used a evicted before b")
	}
	if got := c.bytes(); got != 2*429 {
		t.Errorf("cache holds %d bytes, want %d", got, 2*429)
	}
	// Oversized entries are refused rather than flushing the cache:
	// 900 body bytes + key + overhead exceeds the 1000-byte budget.
	c.add(&cacheEntry{key: "huge", body: body(900)})
	if _, ok := c.get("huge"); ok {
		t.Error("over-capacity body cached")
	}
	if c.len() != 2 {
		t.Errorf("cache has %d entries, want 2", c.len())
	}
}

// TestTileCacheChargesOverhead pins the byte-accounting rule: tiny
// bodies cannot pack the cache beyond its budget because keys and
// fixed per-entry overhead are charged too.
func TestTileCacheChargesOverhead(t *testing.T) {
	c := newTileCache(1 << 10)
	for i := 0; i < 100; i++ {
		c.add(&cacheEntry{key: strings.Repeat("k", 30) + string(rune('a'+i)), body: []byte{1}})
	}
	// Body-only accounting would keep all 100 (100 bytes); charged
	// accounting fits at most 1024/160 = 6.
	if got := c.len(); got > 6 {
		t.Errorf("cache holds %d single-byte entries under a 1KiB budget; overhead not charged", got)
	}
	if got := c.bytes(); got > 1<<10 {
		t.Errorf("cache charges %d bytes, budget %d", got, 1<<10)
	}
}

func TestTileCacheDisabled(t *testing.T) {
	c := newTileCache(-1)
	c.add(&cacheEntry{key: "a", body: []byte{1}})
	if _, ok := c.get("a"); ok {
		t.Error("disabled cache stored an entry")
	}
}

func TestMetricsPrometheusText(t *testing.T) {
	m := newMetrics()
	m.countRequest("tile", 200)
	m.countRequest("tile", 200)
	m.countRequest("tile", 429)
	m.countRequest("healthz", 200)
	m.latency.observe(3 * time.Millisecond)
	m.latency.observe(40 * time.Millisecond)
	m.cacheHits.Add(1)
	var buf bytes.Buffer
	m.writePrometheus(&buf, []gaugeFn{{"rrsd_queue_depth", "q", func() int64 { return 7 }}})
	out := buf.String()
	for _, want := range []string{
		`rrsd_requests_total{route="healthz",code="200"} 1`,
		`rrsd_requests_total{route="tile",code="200"} 2`,
		`rrsd_requests_total{route="tile",code="429"} 1`,
		`rrsd_request_seconds_bucket{le="+Inf"} 2`,
		`rrsd_request_seconds_count 2`,
		`rrsd_tile_cache_hits_total 1`,
		`rrsd_queue_depth 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
	// Deterministic rendering: a second scrape with no new events is
	// byte-identical (sorted map iteration).
	var buf2 bytes.Buffer
	m.writePrometheus(&buf2, []gaugeFn{{"rrsd_queue_depth", "q", func() int64 { return 7 }}})
	if buf.String() != buf2.String() {
		t.Error("consecutive scrapes differ")
	}
}

func TestF32CodecRoundTrip(t *testing.T) {
	g := grid.New(5, 3)
	for i := range g.Data {
		g.Data[i] = float64(i) * 0.25
	}
	body := encodeF32(g.Data)
	if len(body) != 4*len(g.Data) {
		t.Fatalf("encoded %d bytes, want %d", len(body), 4*len(g.Data))
	}
	vals := decodeF32(body)
	for i, v := range vals {
		if !approx.Exact(float64(v), float64(float32(g.Data[i]))) {
			t.Fatalf("sample %d decoded to %g, want %g", i, v, float32(g.Data[i]))
		}
	}
}
