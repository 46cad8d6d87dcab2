package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"roughsurface/internal/service"
)

func TestParseSizes(t *testing.T) {
	mix, err := parseSizes("64x64, 128x32")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 2 || mix[0] != [2]int{64, 64} || mix[1] != [2]int{128, 32} {
		t.Fatalf("parseSizes = %v", mix)
	}
	for _, bad := range []string{"", "64", "64x", "0x64", "ax б"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) accepted", bad)
		}
	}
}

func TestTileForDeterministicAndBounded(t *testing.T) {
	mix := [][2]int{{64, 64}, {128, 128}}
	seen := map[tileSpec]bool{}
	for k := 0; k < 200; k++ {
		ts := tileFor(1, k, mix, 4, 1024, "f32")
		if ts != tileFor(1, k, mix, 4, 1024, "f32") {
			t.Fatal("tileFor is not deterministic")
		}
		if ts.x0 < -1024 || ts.x0 >= 1024 || ts.y0 < -1024 || ts.y0 >= 1024 {
			t.Fatalf("origin (%d,%d) outside span", ts.x0, ts.y0)
		}
		if ts.seed < 1 || ts.seed > 4 {
			t.Fatalf("seed %d outside rotation", ts.seed)
		}
		seen[ts] = true
	}
	if len(seen) < 100 {
		t.Errorf("schedule repeats too much: %d distinct tiles of 200", len(seen))
	}
}

// TestRunAgainstService drives a short closed loop against an in-process
// daemon and checks the report: every request succeeded and the output
// has the latency-quantile and status lines.
func TestRunAgainstService(t *testing.T) {
	s := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-url", ts.URL, "-duration", "300ms", "-qps", "100", "-c", "2",
		"-sizes", "16x16,32x32", "-span", "128",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"latency p50=", "p99=", "status 200="} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "error=") {
		t.Errorf("transport errors during load:\n%s", out)
	}
}

// TestRunMultiURL drives two independent daemons through the
// comma-separated -url form: the content-addressed scene registers
// identically on both, traffic round-robins, and the report grows a
// per-node section.
func TestRunMultiURL(t *testing.T) {
	s1 := service.New(service.Config{Workers: 2})
	ts1 := httptest.NewServer(s1.Handler())
	s2 := service.New(service.Config{Workers: 2})
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts1.Close(); s1.Close(); ts2.Close(); s2.Close() })

	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-url", ts1.URL + "," + ts2.URL, "-duration", "300ms", "-qps", "100", "-c", "2",
		"-sizes", "16x16", "-span", "128",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"2 nodes", "node " + ts1.URL, "node " + ts2.URL, "shed retries", "total backoff",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("multi-url report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "error=") {
		t.Errorf("transport errors during multi-url load:\n%s", out)
	}
}

// TestRunRetryAfterBackoff points rrsload at a server that always
// sheds and checks that the shed responses are retried with backoff
// and the summary reports it.
func TestRunRetryAfterBackoff(t *testing.T) {
	shedder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, `{"id":"deadbeef"}`)
			return
		}
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	t.Cleanup(shedder.Close)

	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-url", shedder.URL, "-duration", "300ms", "-qps", "50", "-c", "2",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	// The status line may lead with error= when the deadline cut a
	// request mid-flight; only the shed count itself matters here.
	if !strings.Contains(out, " 429=") {
		t.Errorf("report missing shed status:\n%s", out)
	}
	if strings.Contains(out, "shed retries 0,") {
		t.Errorf("429s were never retried:\n%s", out)
	}
	if strings.Contains(out, "total backoff 0s") {
		t.Errorf("no backoff accumulated:\n%s", out)
	}
}

func TestRetryDelayDeterministicAndBounded(t *testing.T) {
	if retryDelay("", 1, 2, 0) != retryDelay("", 1, 2, 0) {
		t.Error("retryDelay is not deterministic")
	}
	// No header: exponential base, jittered into [0.5x, 1.5x).
	for attempt := 0; attempt < 3; attempt++ {
		base := 25 * time.Millisecond << attempt
		d := retryDelay("", 3, 7, attempt)
		if d < base/2 || d >= base+base/2 {
			t.Errorf("attempt %d: delay %s outside [%s, %s)", attempt, d, base/2, base+base/2)
		}
	}
	// Retry-After seconds are honored, jittered, and capped.
	if d := retryDelay("2", 0, 0, 0); d < time.Second || d >= 3*time.Second {
		t.Errorf("Retry-After 2: delay %s outside [1s, 3s)", d)
	}
	if d := retryDelay("3600", 0, 0, 0); d >= 8*time.Second {
		t.Errorf("Retry-After 3600: delay %s not capped", d)
	}
	// Different (worker, k) jitter differently.
	same := 0
	for k := 0; k < 16; k++ {
		if retryDelay("", 0, k, 0) == retryDelay("", 1, k, 0) {
			same++
		}
	}
	if same == 16 {
		t.Error("jitter ignores the worker index")
	}
}

func TestParseURLs(t *testing.T) {
	got := parseURLs(" http://a:1/ ,, http://b:2 ")
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Fatalf("parseURLs = %v", got)
	}
	if parseURLs(" , ") != nil {
		t.Error("blank -url accepted")
	}
}

func TestRunFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := run(ctx, nil, &buf); err == nil {
		t.Error("missing -url accepted")
	}
	if err := run(ctx, []string{"-url", "http://x", "-c", "0"}, &buf); err == nil {
		t.Error("-c 0 accepted")
	}
	if err := run(ctx, []string{"-url", "http://x", "-sizes", "bad"}, &buf); err == nil {
		t.Error("bad -sizes accepted")
	}
}

func TestZoomTraceDeterministicAndCoversLevels(t *testing.T) {
	trace := zoomTrace(3)
	again := zoomTrace(3)
	if len(trace) == 0 || len(trace) != len(again) {
		t.Fatalf("trace lengths %d vs %d", len(trace), len(again))
	}
	levels := map[int64]int{}
	for i := range trace {
		if trace[i] != again[i] {
			t.Fatal("zoomTrace is not deterministic")
		}
		if trace[i][0] < 0 || trace[i][0] > 3 {
			t.Fatalf("step %d at level %d, outside [0,3]", i, trace[i][0])
		}
		levels[trace[i][0]]++
	}
	for z := int64(0); z <= 3; z++ {
		if levels[z] == 0 {
			t.Errorf("trace never visits level %d", z)
		}
	}
	// The walk pans: each level visits multiple distinct tiles.
	distinct := map[[3]int64]bool{}
	for _, s := range trace {
		distinct[s] = true
	}
	if len(distinct) < len(trace)/2 {
		t.Errorf("trace of %d steps covers only %d distinct tiles", len(trace), len(distinct))
	}
}

// TestRunZoomWalk drives the pyramid workload against an in-process
// daemon and checks the per-level hit-rate report.
func TestRunZoomWalk(t *testing.T) {
	s := service.New(service.Config{Workers: 2, TileEdge: 32})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-url", ts.URL, "-duration", "500ms", "-qps", "200", "-c", "2",
		"-walk", "zoom", "-zmax", "2",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"status 200=", "level 0:", "level 2:", "% cache hits"} {
		if !strings.Contains(out, want) {
			t.Errorf("zoom-walk report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "error=") {
		t.Errorf("transport errors during zoom walk:\n%s", out)
	}

	if err := run(context.Background(), []string{"-url", "http://x", "-walk", "sideways"}, &buf); err == nil {
		t.Error("bad -walk accepted")
	}
}
