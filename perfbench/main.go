// Command perfbench is the repository benchmark. It builds nothing
// itself: run.sh builds rrsd and this program, then runs
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// from the repository root. The rrsd workloads drive real rrsd processes
// on loopback from at most two connections, first open loop at a fixed
// rate, then closed loop; paper-batch renders the paper's figure scenes
// in a child process. Every run checks its outputs (golden scene ID and
// tile, byte-for-byte spot checks against an in-process render, counter
// reconciliation), prints a report, and ends with one JSON line:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// env is the run's context: where the binaries and scratch files live.
type env struct {
	rrsd   string // rrsd binary
	outDir string // build and trace output directory
	runDir string // per-run scratch (port and peers files)
	out    io.Writer
}

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tile_p50_ms", "ms"},
	{"tile_p99_ms", "ms"},
	{"tiles_per_s", "1/s"},
	{"cpu_ms_per_tile", "ms"},
	{"peak_rss_mb", "MiB"},
	{"samples_per_s", "1/s"},
	{"probe_rel_err", "ratio"},
}

var perLayer = []metricDef{
	{"fail_ratio", "ratio"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.hit_p50_ms", "ms"},
	{"service.miss_p50_ms", "ms"},
	{"service.queue_depth_max", "count"},
	{"service.shed", "count"},
	{"service.expired", "count"},
	{"service.prefetch_rendered_per_miss", "ratio"},
	{"service.prefetch_skipped", "count"},
	{"service.prefetch_dropped", "count"},
	{"service.self_ms", "ms"},
	{"core.design_ms", "ms"},
	{"core.designs", "count"},
	{"convgen.render_f32_ms", "ms"},
	{"convgen.render_f64_ms", "ms"},
	{"convgen.ns_per_tap_sample", "ns"},
	{"convgen.fft_share", "ratio"},
	{"inhomo.render_f32_ms", "ms"},
	{"inhomo.render_f64_ms", "ms"},
	{"inhomo.weightmap_ms", "ms"},
	{"rng.fill_ns_per_sample", "ns"},
	{"render.png_ms", "ms"},
	{"cluster.proxied_ratio", "ratio"},
	{"cluster.peer_hit_ratio", "ratio"},
	{"cluster.proxied_p50_ms", "ms"},
	{"cluster.fallbacks", "count"},
	{"gen.lateness_p99_ms", "ms"},
	{"trace.overhead_tile_p50_ms", "ms"},
	{"trace.overhead_samples_per_s", "1/s"},
	{"trace.unattributed_share", "ratio"},
}

// result is the run's final line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload hands back for printing.
type outcome struct {
	attempted, failed int
	errs              []string // correctness failures
	values            map[string]float64
}

func main() {
	// No signal handling: a SIGTERM ends the run at once, and the
	// daemons it started die with it (Pdeathsig).
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	rrsd := fs.String("rrsd", "", "rrsd binary")
	outDir := fs.String("out", ".bench_build", "directory for scratch files and span dumps")
	paperChild := fs.Bool("paper-child", false, "internal: run the paper-batch renders and report JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *paperChild {
		return paperChildMain(os.Stdout, *seed, *seconds, *trace == 1, *outDir)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	runDir, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	e := &env{rrsd: *rrsd, outDir: *outDir, runDir: runDir, out: os.Stdout}

	var o *outcome
	if *workload == "paper-batch" {
		o, err = runPaper(e, *seed, *seconds, *trace == 1)
	} else {
		w, ok := workloads()[*workload]
		if !ok {
			return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
		}
		if *rrsd == "" {
			return errors.New("--rrsd is required for the rrsd workloads")
		}
		o, err = runRRSD(e, w, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		return err
	}
	//lint:ignore detflow the result line reports measured times by design
	return printResult(e.out, o, *trace == 1)
}

func printResult(out io.Writer, o *outcome, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Correct: len(o.errs) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, e := range o.errs {
		fmt.Fprintln(out, "perfbench: CHECK FAILED:", e)
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "perfbench: %-36s %14.6g %s\n", d.name, v, d.unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

func workloadNames() []string {
	names := []string{"paper-batch"}
	for n := range workloads() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// workloads lists the rrsd traffic mixes. Open-loop rates sit near half
// of each mix's closed-loop capacity on a 2-core host.
func workloads() map[string]*rrsdWorkload {
	zoom := func(seed uint64, k int, scenes []*scene, nodes int) stream {
		return newZoomStream(seed, k, scenes[0], 256, nodes)
	}
	return map[string]*rrsdWorkload{
		"zoom-session": {
			name: "zoom-session", nodes: 1, openRate: 130,
			fixtures: []string{fixtureHomog}, levels: []int{0, 1, 2, 3},
			newStream: zoom,
			// The same sessions against a two-node fleet, one CPU per
			// node, requests alternating between nodes: the traced run's
			// source of the cluster metrics.
			fleet: &rrsdWorkload{
				name: "zoom-session fleet leg", nodes: 2, gomaxprocs: 1, cacheMB: 64, openRate: 75,
				fixtures: []string{fixtureHomog}, levels: []int{0, 1, 2, 3},
				newStream: zoom,
			},
		},
		"cold-mixed": {
			name: "cold-mixed", nodes: 1, openRate: 100, cacheMB: 1,
			fixtures: []string{fixtureHomog, fixturePlate, fixturePoint},
			newStream: func(seed uint64, k int, scenes []*scene, _ int) stream {
				return newColdStream(seed, k, scenes)
			},
		},
	}
}
