package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"roughsurface/internal/par"
	"roughsurface/internal/service"
)

// failedLatencyMS stands in for the latency of a failed or never-sent
// request, so it ranks above every real latency.
const failedLatencyMS = 1e6

// runRRSD measures an rrsd workload. Traced, it adds the workload's
// fleet leg, which supplies the cluster metrics, and replays the
// open-loop inputs in process under spans.
func runRRSD(e *env, w *rrsdWorkload, seed uint64, seconds float64, traced bool) (*outcome, error) {
	// The load generator's garbage is response bodies; collecting less
	// often keeps its pauses out of the latencies it measures. The
	// in-process replay below runs at the default.
	gc := debug.SetGCPercent(400)
	res, err := w.run(e, seed, seconds)
	debug.SetGCPercent(gc)
	if err != nil {
		return nil, err
	}
	o := summarize(e, w, res)
	if !traced {
		return o, nil
	}
	v := o.values
	if w.fleet != nil {
		fres, err := w.fleet.run(e, seed, seconds/2)
		if err != nil {
			return nil, err
		}
		fo := summarize(e, w.fleet, fres)
		o.attempted += fo.attempted
		o.failed += fo.failed
		o.errs = append(o.errs, fo.errs...)
		for _, m := range perLayer {
			if strings.HasPrefix(m.name, "cluster.") {
				v[m.name] = fo.values[m.name]
			}
		}
	}
	//lint:ignore detflow the replay regenerates the run's seeded requests; res only shares a struct with timings
	tr, tres, err := traceReplay(w, res, time.Duration(seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	o.attempted += tres.attempted
	o.failed += len(tres.errs)
	o.errs = append(o.errs, tres.errs...)
	v["fail_ratio"] = ratio(float64(o.failed), float64(o.attempted))
	layerMetrics(e, tr, v)
	serve := tr.named("service.serve")
	var parents, selfs []float64
	var replaySamples float64
	for _, s := range serve {
		parents = append(parents, ms(s.dur()))
		selfs = append(selfs, ms(s.dur()-tres.childTime[s.ID]))
		replaySamples += float64(s.Attrs["samples"].(int))
	}
	tracedP50 := median(parents)
	v["service.self_ms"] = median(selfs)
	v["trace.overhead_tile_p50_ms"] = tracedP50 - v["tile_p50_ms"]
	v["trace.overhead_samples_per_s"] = ratio(replaySamples, tres.wall.Seconds()) - v["samples_per_s"]
	v["trace.unattributed_share"] = 1 - ratio(tracedP50, v["tile_p50_ms"])
	fmt.Fprintf(e.out, "perfbench: traced replay: %d tiles in %.2fs in process; ServeHTTP p50 %.4f ms vs %.4f ms end to end\n",
		len(serve), tres.wall.Seconds(), tracedP50, v["tile_p50_ms"])
	if err := tr.write(traceFile(e, w.name, seed)); err != nil {
		return nil, err
	}
	return o, nil
}

// summarize turns a run into its end-to-end metrics and the per-layer
// metrics the daemons' counters and the response headers give, and
// prints the run's report.
func summarize(e *env, w *rrsdWorkload, res *rrsdRun) *outcome {
	o := &outcome{values: map[string]float64{}, errs: res.errs}
	v := o.values
	all := append(append([]sample(nil), res.open.samples...), res.closed.samples...)
	okTiles := 0
	for _, s := range all {
		if s.ok {
			okTiles++
			continue
		}
		if o.failed == 0 {
			fmt.Fprintf(e.out, "perfbench: first failed request: %s: %s\n", s.req.path(), s.err)
		}
		o.failed++
	}
	o.attempted = len(all) + res.open.unsent + res.checks
	o.failed += res.open.unsent + len(res.errs)

	var lat []float64
	for _, s := range res.open.samples {
		if s.ok {
			lat = append(lat, ms(s.latency()))
		} else {
			lat = append(lat, failedLatencyMS)
		}
	}
	for i := 0; i < res.open.unsent; i++ {
		lat = append(lat, failedLatencyMS)
	}
	v["tile_p50_ms"] = median(lat)
	p99, pct := tailQuantile(lat, 10)
	v["tile_p99_ms"] = p99
	v["tiles_per_s"], v["samples_per_s"] = res.closed.rates()
	v["cpu_ms_per_tile"] = ratio(res.cpuMS, float64(okTiles))
	v["peak_rss_mb"] = res.rssMB
	v["setup_s"] = res.setupS
	v["probe_rel_err"] = res.probe
	fmt.Fprintf(e.out, "perfbench: %s seed %d: open loop %d requests in %.2fs at %.0f/s (%d never sent); p50 and p%.4g over %d samples\n",
		w.name, res.seed, len(res.open.samples), res.open.end.Sub(res.open.start).Seconds(), w.openRate,
		res.open.unsent, pct, len(lat))
	fmt.Fprintf(e.out, "perfbench: %s: closed loop %d requests in %.2fs over %d connections\n",
		w.name, len(res.closed.samples), res.closed.end.Sub(res.closed.start).Seconds(), conns())
	reportClasses(e.out, res.open.samples)

	d := delta(promSample{}, res.dOpen)
	for k, x := range res.dClosed {
		d[k] += x
	}
	hits, misses := d["rrsd_tile_cache_hits_total"], d["rrsd_tile_cache_misses_total"]
	v["fail_ratio"] = ratio(float64(o.failed), float64(o.attempted))
	v["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	var hitLat, missLat, proxLat []float64
	var proxied, proxiedHits, okOpen float64
	for _, s := range res.open.samples {
		if !s.ok {
			continue
		}
		okOpen++
		switch s.cache {
		case "hit":
			hitLat = append(hitLat, ms(s.latency()))
		case "miss":
			missLat = append(missLat, ms(s.latency()))
		}
		if s.servedBy != "" && s.servedBy != fmt.Sprintf("n%d", s.req.node) {
			proxied++
			proxLat = append(proxLat, ms(s.latency()))
			if s.cache == "hit" {
				proxiedHits++
			}
		}
	}
	v["service.hit_p50_ms"] = median(hitLat)
	v["service.miss_p50_ms"] = median(missLat)
	v["service.queue_depth_max"] = res.open.maxQueue
	v["service.shed"] = d["rrsd_tiles_shed_total"]
	v["service.expired"] = d["rrsd_tiles_deadline_total"]
	v["service.prefetch_rendered_per_miss"] = ratio(d["rrsd_prefetch_rendered_total"], misses)
	v["service.prefetch_skipped"] = d["rrsd_prefetch_skipped_total"]
	v["service.prefetch_dropped"] = d["rrsd_prefetch_dropped_total"]
	v["cluster.proxied_ratio"] = ratio(proxied, okOpen)
	v["cluster.peer_hit_ratio"] = ratio(proxiedHits, proxied)
	v["cluster.proxied_p50_ms"] = median(proxLat)
	v["cluster.fallbacks"] = d.sumPrefix("rrsd_cluster_fallback_total")
	v["gen.lateness_p99_ms"], _ = tailQuantile(res.open.late, 10)
	for _, m := range perLayer {
		if _, ok := v[m.name]; !ok {
			v[m.name] = 0
		}
	}
	fmt.Fprintf(e.out, "perfbench: %s: cache %g hits / %g misses (ratio %.3f); open-loop hit p50 %.3f ms over %d, miss p50 %.3f ms over %d\n",
		w.name, hits, misses, v["service.cache_hit_ratio"], v["service.hit_p50_ms"], len(hitLat), v["service.miss_p50_ms"], len(missLat))
	fmt.Fprintf(e.out, "perfbench: %s: tile p50 %.3f ms, p99 %.3f ms, %.1f tiles/s, %.2f CPU ms/tile, peak RSS %.1f MiB, set-up %.3f s\n",
		w.name, v["tile_p50_ms"], v["tile_p99_ms"], v["tiles_per_s"], v["cpu_ms_per_tile"], v["peak_rss_mb"], v["setup_s"])
	return o
}

type replayResult struct {
	attempted int
	errs      []string
	childTime map[int]time.Duration // service.serve span ID → direct children's total
	wall      time.Duration
}

// traceReplay replays each connection's open-loop requests against an
// in-process service (httptest, no sockets) under a service.serve span.
// After every miss it re-renders the tile through the public layer calls
// as the span's children and checks the bytes match.
func traceReplay(w *rrsdWorkload, res *rrsdRun, budget time.Duration) (*tracer, *replayResult, error) {
	cfg := service.Config{}
	if w.cacheMB > 0 {
		cfg.CacheBytes = w.cacheMB << 20
	}
	s := service.New(cfg)
	defer s.Close()
	h := s.Handler()
	tr := newTracer()
	rr := newRefRenderer()
	out := &replayResult{}

	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	for _, sc := range res.scenes {
		if rec := serve(http.MethodPost, "/v1/scene", sc.doc); rec.Code != http.StatusCreated {
			return nil, nil, fmt.Errorf("in-process scene post: %d %s", rec.Code, rec.Body)
		}
	}
	levels := w.levels
	if levels == nil {
		levels = []int{-1}
	}
	for _, sc := range res.scenes {
		for _, z := range levels {
			r := request{scene: sc, level: z, x: 1000, nx: 128, ny: 128, seed: warmSeed, format: "f32", prec: "f32"}
			if z >= 0 {
				r.nx, r.ny = 256, 256
			}
			if rec := serve(http.MethodGet, r.path(), nil); rec.Code != http.StatusOK {
				return nil, nil, fmt.Errorf("in-process warm-up: %d", rec.Code)
			}
			if _, err := rr.design(sc, r.cacheLevel(), tr, 0, 0); err != nil {
				return nil, nil, err
			}
		}
	}

	var mu sync.Mutex
	start := time.Now()
	par.ForEach(len(res.open.perConn), len(res.open.perConn), func(k int) {
		gen := w.newStream(res.seed, k, res.scenes, 1)
		var errs []string
		n := 0
		for i := 0; i < res.open.perConn[k] && time.Since(start) < budget; i++ {
			r := gen.next()
			n++
			req := k*10_000_000 + i + 1
			if r.register {
				if rec := serve(http.MethodPost, "/v1/scene", r.scene.doc); rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
					errs = append(errs, fmt.Sprintf("in-process scene post: %d", rec.Code))
					continue
				}
			}
			t0 := time.Now()
			rec := serve(http.MethodGet, r.path(), nil)
			cache := rec.Header().Get("X-Cache")
			pid := tr.record(0, req, "service.serve", t0, time.Now(), map[string]any{
				"cache": cache, "level": r.cacheLevel(), "format": r.format, "precision": r.prec,
				"samples": r.nx * r.ny})
			if rec.Code != http.StatusOK {
				errs = append(errs, fmt.Sprintf("in-process %s: status %d", r.path(), rec.Code))
				continue
			}
			if cache != "miss" {
				continue
			}
			body, err := rr.render(r, tr, pid, req)
			if err != nil {
				errs = append(errs, err.Error())
			} else if !bytes.Equal(body, rec.Body.Bytes()) {
				errs = append(errs, fmt.Sprintf("in-process %s: service bytes differ from the layer-by-layer render", r.path()))
			}
		}
		mu.Lock()
		out.attempted += n
		out.errs = append(out.errs, errs...)
		mu.Unlock()
	})
	out.wall = time.Since(start)
	out.childTime = map[int]time.Duration{}
	for _, sp := range tr.spans {
		if sp.Parent != 0 {
			out.childTime[sp.Parent] += sp.dur()
		}
	}
	return tr, out, nil
}

// layerMetrics derives the per-layer figures every traced workload
// shares from its spans, and prints the cost-model record: convgen ns
// per tap-sample by kernel size, engine and precision.
func layerMetrics(e *env, tr *tracer, v map[string]float64) {
	v["core.design_ms"] = tr.medianMS("core.design")
	v["core.designs"] = float64(len(tr.named("core.design")))
	v["convgen.render_f32_ms"] = tr.medianMS("convgen.render_f32")
	v["convgen.render_f64_ms"] = tr.medianMS("convgen.render_f64")
	v["inhomo.render_f32_ms"] = tr.medianMS("inhomo.render_f32")
	v["inhomo.render_f64_ms"] = tr.medianMS("inhomo.render_f64")
	v["inhomo.weightmap_ms"] = tr.medianMS("inhomo.weightmap")
	v["render.png_ms"] = tr.medianMS("render.png")

	var perTap, perSample []float64
	var fft float64
	groups := map[string][]float64{}
	for _, s := range tr.spans {
		switch {
		case strings.HasPrefix(s.Name, "convgen.render_"):
			x := float64(s.dur()) / float64(s.Attrs["samples"].(int)*s.Attrs["taps"].(int))
			key := fmt.Sprintf("kernel %-9s engine %-6s %s", s.Attrs["kernel"], s.Attrs["engine"],
				strings.TrimPrefix(s.Name, "convgen.render_"))
			if c, ok := s.Attrs["calibration"]; ok {
				// Calibration renders feed the cost-model record only.
				groups[key+fmt.Sprintf(" (%v)", c)] = append(groups[key+fmt.Sprintf(" (%v)", c)], x)
				continue
			}
			groups[key] = append(groups[key], x)
			perTap = append(perTap, x)
			if s.Attrs["engine"] == "fft" {
				fft++
			}
		case s.Name == "rng.fill":
			perSample = append(perSample, float64(s.dur())/float64(s.Attrs["samples"].(int)))
		}
	}
	v["convgen.ns_per_tap_sample"] = median(perTap)
	v["convgen.fft_share"] = ratio(fft, float64(len(perTap)))
	v["rng.fill_ns_per_sample"] = median(perSample)
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(e.out, "perfbench: cost model: %s: %.4g ns per tap-sample (median of %d)\n",
			k, median(groups[k]), len(groups[k]))
	}
}

// reportClasses prints open-loop latency by request class: the method,
// size, format and precision of the tile, the pyramid level, and whether
// the cache held it.
func reportClasses(out io.Writer, samples []sample) {
	classes := map[string][]float64{}
	for _, s := range samples {
		r := s.req
		c := fmt.Sprintf("%-11s z%-2d %dx%d %s/%s %-4s", r.scene.kind(), r.cacheLevel(), r.nx, r.ny, r.format, r.prec, s.cache)
		if r.register {
			c += " new scene"
		}
		classes[c] = append(classes[c], ms(s.latency()))
	}
	keys := make([]string, 0, len(classes))
	for k := range classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		xs := classes[k]
		p50 := median(xs) // sorts xs
		fmt.Fprintf(out, "perfbench: class %s: %5d requests, p50 %8.3f ms, max %8.3f ms\n",
			k, len(xs), p50, xs[len(xs)-1])
	}
}
