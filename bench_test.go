// Package roughsurface's root benchmark harness: one benchmark per paper
// table/figure (Figures 1–4 plus the internal accuracy experiments
// E5–E8 of DESIGN.md) and ablation benches for the design choices the
// convolution method motivates — kernel truncation, engine selection,
// fast-vs-literal inhomogeneous blending, and parallel scaling.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Figure benches regenerate the full-size (1024²) paper figures per
// iteration; expect seconds per op.
package roughsurface

import (
	"fmt"
	"math"
	"testing"

	"roughsurface/internal/convgen"
	"roughsurface/internal/core"
	"roughsurface/internal/dftgen"
	"roughsurface/internal/figures"
	"roughsurface/internal/grid"
	"roughsurface/internal/inhomo"
	"roughsurface/internal/oned"
	"roughsurface/internal/rng"
	"roughsurface/internal/spectrum"
	"roughsurface/internal/stats"
)

// benchFigure regenerates one paper figure per iteration and reports the
// pooled probe error as a metric, so the benchmark output doubles as a
// reproduction record.
func benchFigure(b *testing.B, id int) {
	f, err := figures.Get(id, figures.Size, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var lastErr float64
	for i := 0; i < b.N; i++ {
		surf, probes, err := figures.Run(f)
		if err != nil {
			b.Fatal(err)
		}
		_ = surf
		// Mean relative error of pooled group h against targets.
		pooled := figures.GroupMeans(probes)
		targets := map[string]float64{}
		counts := map[string]int{}
		for _, p := range probes {
			targets[p.Group] += p.WantH
			counts[p.Group]++
		}
		var relSum float64
		var n int
		for g, got := range pooled {
			want := targets[g] / float64(counts[g])
			relSum += math.Abs(got-want) / want
			n++
		}
		lastErr = relSum / float64(n)
	}
	b.ReportMetric(lastErr, "relHerr")
}

// BenchmarkFigure1 regenerates paper Fig. 1 (plate method, one spectrum,
// three parameter sets) at full size. Experiment E1.
func BenchmarkFigure1(b *testing.B) { benchFigure(b, 1) }

// BenchmarkFigure2 regenerates paper Fig. 2 (plate method, four
// spectra). Experiment E2.
func BenchmarkFigure2(b *testing.B) { benchFigure(b, 2) }

// BenchmarkFigure3 regenerates paper Fig. 3 (circular pond). E3.
func BenchmarkFigure3(b *testing.B) { benchFigure(b, 3) }

// BenchmarkFigure4 regenerates paper Fig. 4 (point-oriented method,
// ten representative points). E4.
func BenchmarkFigure4(b *testing.B) { benchFigure(b, 4) }

// BenchmarkWeightArray times the §2.2 weighting-array construction
// (experiment E5's object) for each spectral family at figure scale.
func BenchmarkWeightArray(b *testing.B) {
	specs := []spectrum.Spectrum{
		spectrum.MustGaussian(1, 40, 40),
		spectrum.MustPowerLaw(1, 40, 40, 2),
		spectrum.MustExponential(1, 40, 40),
	}
	for _, s := range specs {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := spectrum.Weights(s, 1024, 1024, 1024, 1024)
				_ = w
			}
		})
	}
}

// BenchmarkConvVsDFT compares the two homogeneous generation methods of
// §2.4 (experiment E7) at 512²: the direct DFT method, the convolution
// method's FFT engine, and the convolution method's literal tap-sum
// engine with a truncated kernel.
func BenchmarkConvVsDFT(b *testing.B) {
	s := spectrum.MustGaussian(1, 12, 12)
	const n = 512

	b.Run("direct-dft", func(b *testing.B) {
		gen := dftgen.Must(s, n, n, 1, 1)
		gauss := rng.NewGaussian(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = gen.Generate(gauss)
		}
	})
	for _, engine := range []struct {
		name string
		e    convgen.Engine
	}{{"conv-fft", convgen.EngineFFT}, {"conv-direct", convgen.EngineDirect}} {
		b.Run(engine.name, func(b *testing.B) {
			k := convgen.MustDesign(s, 1, 1, 8, 1e-4)
			gen := convgen.NewGenerator(k, 1)
			gen.Engine = engine.e
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = gen.GenerateCentered(n, n)
			}
		})
	}
}

// BenchmarkKernelTruncation is the paper's "reduce the size of the
// weighting array to save computation time" claim (E7): same spectrum,
// direct-engine generation cost versus truncation epsilon.
func BenchmarkKernelTruncation(b *testing.B) {
	s := spectrum.MustGaussian(1, 6, 6)
	full := convgen.MustDesign(s, 1, 1, 8, convgen.NoTruncation)
	cases := []struct {
		name string
		k    *convgen.Kernel
	}{
		{"full", full},
		{"eps=1e-6", full.Truncate(1e-6)},
		{"eps=1e-4", full.Truncate(1e-4)},
		{"eps=1e-2", full.Truncate(1e-2)},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("%s/taps=%dx%d", c.name, c.k.Nx, c.k.Ny), func(b *testing.B) {
			gen := convgen.NewGenerator(c.k, 1)
			gen.Engine = convgen.EngineDirect
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = gen.GenerateCentered(128, 128)
			}
		})
		// The same window through the f32 render pipeline (SIMD MAC
		// kernels, half the memory traffic), paired with the f64 case
		// above.
		b.Run(fmt.Sprintf("%s/taps=%dx%d/f32", c.name, c.k.Nx, c.k.Ny), func(b *testing.B) {
			gen := convgen.NewGenerator(c.k, 1)
			gen.Engine = convgen.EngineDirect
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = gen.GenerateAt32(-64, -64, 128, 128)
			}
		})
	}
}

// BenchmarkCorrelationLengthSweep is the paper's §4 cost remark
// (experiment E8): generation time grows with correlation length because
// the weighting array grows with it.
func BenchmarkCorrelationLengthSweep(b *testing.B) {
	for _, cl := range []float64{5, 10, 20, 40, 80} {
		s := spectrum.MustGaussian(1, cl, cl)
		k := convgen.MustDesign(s, 1, 1, 8, 1e-4)
		b.Run(fmt.Sprintf("cl=%g/taps=%dx%d", cl, k.Nx, k.Ny), func(b *testing.B) {
			gen := convgen.NewGenerator(k, 1)
			gen.Engine = convgen.EngineDirect
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = gen.GenerateCentered(96, 96)
			}
		})
	}
}

// BenchmarkInhomoFastVsReference ablates the blended-fields optimization
// against the literal per-point eqn (46) evaluation.
func BenchmarkInhomoFastVsReference(b *testing.B) {
	ka := convgen.MustDesign(spectrum.MustGaussian(1, 5, 5), 1, 1, 6, 1e-3)
	kb := convgen.MustDesign(spectrum.MustExponential(2, 5, 5), 1, 1, 6, 1e-3)
	blender, err := inhomo.NewPointBlender([]inhomo.Point{
		{X: -20, Y: 0, Component: 0},
		{X: 20, Y: 0, Component: 1},
	}, 10, 2)
	if err != nil {
		b.Fatal(err)
	}
	gen := inhomo.MustGenerator([]*convgen.Kernel{ka, kb}, blender, 1)
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = gen.GenerateCentered(64, 64)
		}
	})
	b.Run("reference-eqn46", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inhomo.Reference(gen, make([]float64, 64*64), 64, 64, -32, -32)
		}
	})

	// 3-component plate scene, the tile-sparse engine's target workload:
	// vertical plates meeting at x = ±96 with narrow transitions, so away
	// from the seams every tile has exactly one active component. Output
	// goes into a reused caller-owned grid on both arms, so bytes/op is
	// the engine's own footprint. The dense arm renders the window as one
	// window-sized tile, every component over the whole window; the
	// tiled arm uses 32² tiles.
	plates := mustBlender(inhomo.NewPlateBlender([]inhomo.Region{
		inhomo.Rect{X0: math.Inf(-1), Y0: math.Inf(-1), X1: -96, Y1: math.Inf(1), T: 4},
		inhomo.Rect{X0: -96, Y0: math.Inf(-1), X1: 96, Y1: math.Inf(1), T: 4},
		inhomo.Rect{X0: 96, Y0: math.Inf(-1), X1: math.Inf(1), Y1: math.Inf(1), T: 4},
	}))
	plateKernels := []*convgen.Kernel{
		convgen.MustDesign(spectrum.MustGaussian(1, 1.5, 1.5), 1, 1, 6, 1e-3),
		convgen.MustDesign(spectrum.MustExponential(2, 1.5, 1.5), 1, 1, 6, 1e-3),
		convgen.MustDesign(spectrum.MustGaussian(0.5, 1.5, 1.5), 1, 1, 6, 1e-3),
	}
	const n = 576
	for _, arm := range []struct {
		name string
		tile int
	}{
		{"plates3/dense", n},
		{"plates3/tiled", 32}, // seam tiles (two active components) stay a small fraction
	} {
		b.Run(arm.name, func(b *testing.B) {
			gen := inhomo.MustGenerator(plateKernels, plates, 1)
			gen.TileSize = arm.tile
			dst := grid.New(n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gen.GenerateAtInto(dst, -n/2, -n/2)
			}
		})
		b.Run(arm.name+"/f32", func(b *testing.B) {
			gen := inhomo.MustGenerator(plateKernels, plates, 1)
			gen.TileSize = arm.tile
			dst := grid.New32(n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gen.GenerateAtInto32(dst, -n/2, -n/2)
			}
		})
	}
}

func mustBlender[B inhomo.Blender](b B, err error) B {
	if err != nil {
		panic(err)
	}
	return b
}

// BenchmarkInhomoWeightMap measures the parallelized blend-weight
// rasterizer over the same plate scene.
func BenchmarkInhomoWeightMap(b *testing.B) {
	plates := mustBlender(inhomo.NewPlateBlender([]inhomo.Region{
		inhomo.Rect{X0: math.Inf(-1), Y0: math.Inf(-1), X1: -64, Y1: math.Inf(1), T: 4},
		inhomo.Rect{X0: -64, Y0: math.Inf(-1), X1: 64, Y1: math.Inf(1), T: 4},
		inhomo.Rect{X0: 64, Y0: math.Inf(-1), X1: math.Inf(1), Y1: math.Inf(1), T: 4},
	}))
	k := convgen.MustDesign(spectrum.MustGaussian(1, 3, 3), 1, 1, 6, 1e-3)
	gen := inhomo.MustGenerator([]*convgen.Kernel{k, k, k}, plates, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.WeightMap(1, -256, -256, 512, 512)
	}
}

// BenchmarkParallelScaling measures worker scaling of the direct
// convolution engine.
func BenchmarkParallelScaling(b *testing.B) {
	s := spectrum.MustGaussian(1, 8, 8)
	k := convgen.MustDesign(s, 1, 1, 8, 1e-4)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			gen := convgen.NewGenerator(k, 1)
			gen.Engine = convgen.EngineDirect
			gen.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = gen.GenerateCentered(256, 256)
			}
		})
	}
}

// BenchmarkStreaming reports strip-generation throughput in
// samples/second for the unbounded-surface mode.
func BenchmarkStreaming(b *testing.B) {
	s := spectrum.MustExponential(1, 10, 10)
	k := convgen.MustDesign(s, 1, 1, 8, 1e-4)
	gen := convgen.NewGenerator(k, 1)
	const width, rows = 512, 64
	st := convgen.NewStreamer(gen, 0, 0, width, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Next()
	}
	b.ReportMetric(float64(width*rows)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkAutocovariance times the estimator used throughout the
// experiment harness.
func BenchmarkAutocovariance(b *testing.B) {
	s := spectrum.MustGaussian(1, 10, 10)
	surf := convgen.NewGenerator(convgen.MustDesign(s, 1, 1, 8, 1e-4), 1).GenerateCentered(512, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stats.AutocovarianceFFT(surf)
	}
}

// BenchmarkProfile1D measures 1D profile generation throughput
// (samples/second) for the propagation workflow.
func BenchmarkProfile1D(b *testing.B) {
	s := oned.MustExponential(1, 10)
	k, err := oned.DesignKernel(s, 1, 8, 1e-4)
	if err != nil {
		b.Fatal(err)
	}
	gen := oned.NewGenerator(k, 1)
	const n = 8192
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.GenerateAt(int64(i)*n, n)
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkSamplerAblation compares the two N(0,1) samplers driving the
// direct DFT method end to end.
func BenchmarkSamplerAblation(b *testing.B) {
	s := spectrum.MustGaussian(1, 8, 8)
	gen := dftgen.Must(s, 256, 256, 1, 1)
	b.Run("box-muller", func(b *testing.B) {
		normal := rng.NewGaussian(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = gen.Generate(normal)
		}
	})
	b.Run("ziggurat", func(b *testing.B) {
		normal := rng.NewZiggurat(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = gen.Generate(normal)
		}
	})
}

// BenchmarkSeaSurface measures generation over the Pierson–Moskowitz
// spectrum (extension family): kernel design dominated by the Hankel
// table at construction, then ordinary convolution.
func BenchmarkSeaSurface(b *testing.B) {
	sea, err := spectrum.NewSea(5, 9.81)
	if err != nil {
		b.Fatal(err)
	}
	k, err := convgen.DesignExact(sea, 0.5, 0.5, 40, 1e-5)
	if err != nil {
		b.Fatal(err)
	}
	gen := convgen.NewGenerator(k, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.GenerateCentered(256, 256)
	}
}

// BenchmarkExactVarianceOverhead shows the exact-variance option is
// free at generation time (it only rescales the kernel once).
func BenchmarkExactVarianceOverhead(b *testing.B) {
	s := spectrum.MustExponential(1.5, 6, 6)
	for _, exact := range []bool{false, true} {
		name := "raw"
		if exact {
			name = "exact"
		}
		b.Run(name, func(b *testing.B) {
			var k *convgen.Kernel
			var err error
			if exact {
				k, err = convgen.DesignExact(s, 1, 1, 8, 1e-4)
			} else {
				k, err = convgen.Design(s, 1, 1, 8, 1e-4)
			}
			if err != nil {
				b.Fatal(err)
			}
			gen := convgen.NewGenerator(k, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = gen.GenerateCentered(128, 128)
			}
		})
	}
}

// BenchmarkZoomWalk is the tile-pyramid headline (ISSUE 8): serving a
// fixed pan+zoom trace (levels 0..3, the rrsload zoom-walk shape) from
// per-level kernels versus rendering the equivalent map area entirely
// at level 0. A level-z tile covers 4^z level-0 tiles' worth of area,
// so the pyramid renders ~85× fewer samples over this trace; the
// pyramid gate in scripts/check.sh requires the pyramid to take at most
// 40% of the level-0 time. Generators are pre-built for both arms — the benchmark
// measures render cost, not kernel design.
func BenchmarkZoomWalk(b *testing.B) {
	sc := core.Scene{Nx: 64, Ny: 64, Method: core.MethodHomogeneous,
		Spectrum: &core.SpectrumSpec{Family: "gaussian", H: 1, CL: 8}}
	const (
		edge = 64
		zmax = 3
	)
	// Two tiles per level — a pan step at each stop of the zoom-out.
	var trace [][3]int64
	for z := 0; z <= zmax; z++ {
		trace = append(trace, [3]int64{int64(z), 0, 0}, [3]int64{int64(z), 1, 0})
	}
	gens := make([]*convgen.Generator, zmax+1)
	for z := 0; z <= zmax; z++ {
		view, err := sc.AtLevel(z)
		if err != nil {
			b.Fatal(err)
		}
		comp, err := view.Components()
		if err != nil {
			b.Fatal(err)
		}
		gens[z] = convgen.NewGenerator(comp.Kernels[0], 1)
	}
	buf := make([]float64, edge*edge)

	b.Run("pyramid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, step := range trace {
				gens[step[0]].GenerateAtInto(buf, edge, step[1]*edge, step[2]*edge, edge, edge, 1)
			}
		}
	})
	b.Run("level0", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, step := range trace {
				// The same physical area at full resolution: a level-z
				// tile spans f×f level-0 tiles (f = 2^z).
				f := int64(1) << uint(step[0])
				for ty := int64(0); ty < f; ty++ {
					for tx := int64(0); tx < f; tx++ {
						gens[0].GenerateAtInto(buf, edge,
							(step[1]*f+tx)*edge, (step[2]*f+ty)*edge, edge, edge, 1)
					}
				}
			}
		}
	})
}
