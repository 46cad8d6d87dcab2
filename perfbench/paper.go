package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"roughsurface/internal/convgen"
	"roughsurface/internal/core"
	"roughsurface/internal/figures"
	"roughsurface/internal/grid"
	"roughsurface/internal/inhomo"
)

// paperSHA pins the SHA-256 of each figure surface (float64 samples,
// little-endian, row-major) at figures.Size and seed 1, on amd64.
var paperSHA = map[int]string{
	1: "a6e10fc8abd7aaf28eee8d15453ca27686bb0b2d70125894918e42de37f46acf",
	3: "53ab6f9fc17d6a36c59cb9c90729de58c90026243f3f3605d3e3255d2b152734",
}

// paperReport is what the paper-batch child hands its parent.
type paperReport struct {
	SetupS      float64            `json:"setup_s"`
	RenderMS    []float64          `json:"render_ms"`
	Samples     float64            `json:"samples"`
	CPUMS       float64            `json:"cpu_ms"` // CPU spent inside the renders
	ProbeRelErr float64            `json:"probe_rel_err"`
	Checks      int                `json:"checks"`
	Errs        []string           `json:"errs"`
	Layer       map[string]float64 `json:"layer,omitempty"`
	Report      string             `json:"report"`
}

// runPaper runs the paper-batch renders in a child process, so the
// child's peak RSS is the render's alone.
func runPaper(e *env, seed uint64, seconds float64, traced bool) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-paper-child", "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", trace, "-out", e.outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("paper-batch child: %w", err)
	}
	var rep paperReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("paper-batch child report: %w", err)
	}
	fmt.Fprint(e.out, rep.Report)
	var rssKB int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssKB = ru.Maxrss
	}
	renders := float64(len(rep.RenderMS))
	var total float64
	for _, x := range rep.RenderMS {
		total += x
	}
	p99, _ := tailQuantile(append([]float64(nil), rep.RenderMS...), 10)
	o := &outcome{
		attempted: len(rep.RenderMS) + rep.Checks,
		failed:    len(rep.Errs),
		errs:      rep.Errs,
		values: map[string]float64{
			"setup_s":         rep.SetupS,
			"tile_p50_ms":     median(append([]float64(nil), rep.RenderMS...)),
			"tile_p99_ms":     p99,
			"tiles_per_s":     ratio(renders, total/1000),
			"cpu_ms_per_tile": ratio(rep.CPUMS, renders),
			"peak_rss_mb":     float64(rssKB) / 1024,
			"samples_per_s":   ratio(rep.Samples, total/1000),
			"probe_rel_err":   rep.ProbeRelErr,
			"fail_ratio":      ratio(float64(len(rep.Errs)), float64(len(rep.RenderMS)+rep.Checks)),
		},
	}
	for _, m := range perLayer {
		if _, ok := o.values[m.name]; !ok {
			o.values[m.name] = rep.Layer[m.name]
		}
	}
	if traced {
		o.values["trace.overhead_tile_p50_ms"] = rep.Layer["traced_tile_p50_ms"] - o.values["tile_p50_ms"]
		o.values["trace.overhead_samples_per_s"] = rep.Layer["traced_samples_per_s"] - o.values["samples_per_s"]
	}
	return o, nil
}

// paperChildMain designs the Figure 1 and Figure 3 scenes setupRounds
// times, then renders them over the full grid with nproc workers until
// the time budget is spent (at least once), checking each surface's SHA.
// Traced, it adds one pass with spans around each layer call.
func paperChildMain(out io.Writer, seed uint64, seconds float64, traced bool, outDir string) error {
	figs := []figures.Figure{figures.Figure1(figures.Size, 1), figures.Figure3(figures.Size, 1)}
	if seed%2 == 0 {
		// The scenes are the paper's; the seed only orders them.
		figs[0], figs[1] = figs[1], figs[0]
	}
	var report strings.Builder
	rep := paperReport{}
	check := func(msg string) {
		rep.Checks++
		if msg != "" {
			rep.Errs = append(rep.Errs, msg)
		}
	}

	var comps []*core.Components
	var setups []float64
	var designMS [][]float64 // per round, per figure
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		comps = comps[:0]
		var per []float64
		for _, f := range figs {
			t1 := time.Now()
			c, err := f.Scene.Components()
			if err != nil {
				return err
			}
			per = append(per, ms(time.Since(t1)))
			comps = append(comps, c)
		}
		designMS = append(designMS, per)
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.SetupS = median(setups)

	workers := runtime.NumCPU()
	budget := time.Duration(seconds * float64(time.Second))
	shas := map[int]string{}
	var relErrs []float64
	start := time.Now()
	var last time.Duration
	for pass := 0; pass == 0 || time.Since(start)+last <= budget; pass++ {
		p0 := time.Now()
		for i, f := range figs {
			gen, err := inhomo.NewGenerator(comps[i].Kernels, comps[i].Blender, f.Scene.Seed)
			if err != nil {
				return err
			}
			gen.Workers = workers
			cpu0 := cpuSelf()
			t0 := time.Now()
			surf := gen.GenerateCentered(f.Scene.Nx, f.Scene.Ny)
			dt := time.Since(t0)
			rep.CPUMS += cpuSelf() - cpu0
			rep.RenderMS = append(rep.RenderMS, ms(dt))
			rep.Samples += float64(surf.Nx * surf.Ny)
			check(checkSurface(f.ID, surf, shas))
			if pass == 0 {
				relErrs = append(relErrs, probeError(f, surf))
			}
			fmt.Fprintf(&report, "perfbench: paper-batch pass %d figure %d: %dx%d render %.1f ms, kernels %v, surface sha256 %s\n",
				pass, f.ID, surf.Nx, surf.Ny, ms(dt), comps[i].KernelSizes, shas[f.ID])
		}
		last = time.Since(p0)
	}
	var sum float64
	for _, x := range relErrs {
		sum += x
	}
	rep.ProbeRelErr = sum / float64(len(relErrs))
	fmt.Fprintf(&report, "perfbench: paper-batch set-up (Components of both scenes) median %.3f s over %d rounds; probe relative h error %.4f\n",
		rep.SetupS, setupRounds, rep.ProbeRelErr)

	if traced {
		tr := newTracer()
		t0 := tr.t0
		for i, f := range figs {
			// The last set-up round's designs, as spans.
			d := time.Duration(designMS[len(designMS)-1][i] * float64(time.Millisecond))
			tr.record(0, f.ID, "core.design", t0, t0.Add(d), map[string]any{"figure": f.ID})
			t0 = t0.Add(d)
		}
		v, err := tracePaper(tr, figs, comps, workers, &report)
		if err != nil {
			return err
		}
		rep.Layer = v
		if err := tr.write(traceFile(&env{outDir: outDir}, "paper-batch", seed)); err != nil {
			return err
		}
	}
	rep.Report = report.String()
	//lint:ignore detflow the child reports measured times by design
	return json.NewEncoder(out).Encode(rep)
}

// tracePaper renders each figure once more under an inhomo.render_f64
// span, then replays the layer work inside it as children: each
// component's convgen render over the window, the blend weight maps, and
// the noise fill. It also times each kernel at a 256² window on both
// convgen engines, for the cost-model record.
func tracePaper(tr *tracer, figs []figures.Figure, comps []*core.Components, workers int, report io.Writer) (map[string]float64, error) {
	v := map[string]float64{}
	var renderMS []float64
	var renderTotal time.Duration
	var samples float64
	passStart := time.Now()
	for i, f := range figs {
		comp := comps[i]
		gen, err := inhomo.NewGenerator(comp.Kernels, comp.Blender, f.Scene.Seed)
		if err != nil {
			return nil, err
		}
		gen.Workers = workers
		n := f.Scene.Nx
		i0, j0 := -int64(n/2), -int64(f.Scene.Ny/2)
		t0 := time.Now()
		out := grid.New(n, f.Scene.Ny)
		gen.GenerateAtInto(out, i0, j0)
		dt := time.Since(t0)
		pid := tr.record(0, f.ID, "inhomo.render_f64", t0, t0.Add(dt), map[string]any{
			"figure": f.ID, "components": len(comp.Kernels), "samples": n * f.Scene.Ny})
		renderMS = append(renderMS, ms(dt))
		renderTotal += dt
		samples += float64(n * f.Scene.Ny)

		for _, k := range comp.Kernels {
			cg := convgen.NewGenerator(k, f.Scene.Seed)
			dst := make([]float64, n*f.Scene.Ny)
			t1 := time.Now()
			cg.GenerateAtInto(dst, n, i0, j0, n, f.Scene.Ny, workers)
			tr.record(pid, f.ID, "convgen.render_f64", t1, time.Now(), map[string]any{
				"engine": engineName(cg.EngineFor(n, f.Scene.Ny)), "kernel": fmt.Sprintf("%dx%d", k.Nx, k.Ny),
				"samples": n * f.Scene.Ny, "taps": k.Nx * k.Ny})
		}
		t2 := time.Now()
		for m := range comp.Kernels {
			gen.WeightMap(m, i0, j0, n, f.Scene.Ny)
		}
		tr.record(pid, f.ID, "inhomo.weightmap", t2, time.Now(), nil)
		traceFill(tr, pid, f.ID, f.Scene.Seed, comp.Kernels, i0, j0, n, f.Scene.Ny, false)
		calibrate(tr, f.ID, comp.Kernels, f.Scene.Seed)
	}
	passWall := time.Since(passStart)
	layerMetrics(&env{out: report}, tr, v)
	v["traced_tile_p50_ms"] = median(renderMS)
	v["traced_samples_per_s"] = samples / renderTotal.Seconds()
	var designs time.Duration
	for _, s := range tr.named("core.design") {
		designs += s.dur()
	}
	// The share of the traced pass outside the render spans, leaving out
	// the replayed children and calibration renders the trace itself adds.
	var added time.Duration
	for _, s := range tr.spans {
		if _, calib := s.Attrs["calibration"]; calib || s.Parent != 0 {
			added += s.dur()
		}
	}
	v["trace.unattributed_share"] = 1 - renderTotal.Seconds()/(passWall-added).Seconds()
	fmt.Fprintf(report, "perfbench: paper-batch traced pass: renders %.1f ms, design %.1f ms\n", ms(renderTotal), ms(designs))
	return v, nil
}

// calibrate times every distinct kernel over a 256² window, once on the
// engine convgen picks and once on the other where the direct cost stays
// under 2^30 tap-multiplies.
func calibrate(tr *tracer, req int, kernels []*convgen.Kernel, seed uint64) {
	const edge = 256
	seen := map[string]bool{}
	for _, k := range kernels {
		key := fmt.Sprintf("%dx%d", k.Nx, k.Ny)
		if seen[key] {
			continue
		}
		seen[key] = true
		cg := convgen.NewGenerator(k, seed)
		auto := cg.EngineFor(edge, edge)
		engines := []convgen.Engine{auto}
		if auto == convgen.EngineDirect {
			engines = append(engines, convgen.EngineFFT)
		} else if int64(edge*edge)*int64(k.Nx*k.Ny) <= 1<<30 {
			engines = append(engines, convgen.EngineDirect)
		}
		dst := make([]float64, edge*edge)
		for _, eng := range engines {
			cg.Engine = eng
			t0 := time.Now()
			cg.GenerateAtInto(dst, edge, 0, 0, edge, edge, 1)
			tag := "window 256x256, auto choice"
			if eng != auto {
				tag = "window 256x256, forced"
			}
			tr.record(0, req, "convgen.render_f64", t0, time.Now(), map[string]any{
				"engine": engineName(eng), "kernel": key, "samples": edge * edge,
				"taps": k.Nx * k.Ny, "calibration": tag})
		}
	}
}

// checkSurface compares a figure surface's SHA with the pinned value
// (amd64) and with every earlier render in the run.
func checkSurface(fig int, surf *grid.Grid, shas map[int]string) string {
	buf := make([]byte, 8*len(surf.Data))
	for i, x := range surf.Data {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	sum := sha256.Sum256(buf)
	got := hex.EncodeToString(sum[:])
	if prev, ok := shas[fig]; ok && prev != got {
		return fmt.Sprintf("figure %d: surface SHA %s differs from an earlier render's %s", fig, got, prev)
	}
	shas[fig] = got
	if want := paperSHA[fig]; runtime.GOARCH == "amd64" && want != "" && got != want {
		return fmt.Sprintf("figure %d: surface SHA %s, want %s", fig, got, want)
	}
	return ""
}

// probeError is the figure's pooled relative height error: the mean
// over probe groups of |pooled h − target| / target, the quantity the
// root BenchmarkFigure* benchmarks report as relHerr.
func probeError(f figures.Figure, surf *grid.Grid) float64 {
	probes := figures.Evaluate(f, surf)
	pooled := figures.GroupMeans(probes)
	targets := map[string]float64{}
	counts := map[string]int{}
	for _, p := range probes {
		targets[p.Group] += p.WantH
		counts[p.Group]++
	}
	var sum float64
	for g, got := range pooled {
		want := targets[g] / float64(counts[g])
		sum += math.Abs(got-want) / want
	}
	return sum / float64(len(pooled))
}

// cpuSelf is this process's user+system CPU time in ms.
func cpuSelf() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}
