package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"roughsurface/internal/convgen"
	"roughsurface/internal/core"
	"roughsurface/internal/grid"
	"roughsurface/internal/inhomo"
	"roughsurface/internal/render"
	"roughsurface/internal/rng"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around the layer's public function.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"` // 0 = root
	Req    int            `json:"req"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"` // since the trace began
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced paths share the traced code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(parent, req int, name string, start, end time.Time, attrs map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Attrs: attrs})
	return id
}

// named returns the spans called name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// medianMS is the median duration of the spans called name, in ms.
func (t *tracer) medianMS(name string) float64 {
	var xs []float64
	for _, s := range t.named(name) {
		xs = append(xs, ms(s.dur()))
	}
	return median(xs)
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func engineName(e convgen.Engine) string {
	if e == convgen.EngineFFT {
		return "fft"
	}
	return "direct"
}

// refRenderer renders tiles in process through the public layer calls
// the daemon's tile path makes: Scene.AtLevel and Components, a
// convgen or inhomo generator, and render.PNG. Designs and generators
// are cached the way the daemon caches them.
type refRenderer struct {
	mu      sync.Mutex
	designs map[string]*designSlot
	gens    map[string]any // *convgen.Generator or *inhomo.Generator
}

type designSlot struct {
	once sync.Once
	comp *core.Components
	err  error
}

func newRefRenderer() *refRenderer {
	return &refRenderer{designs: map[string]*designSlot{}, gens: map[string]any{}}
}

// design returns the (scene, level) components, designing them on first
// use under a core.design span.
func (rr *refRenderer) design(sc *scene, level int, tr *tracer, parent, req int) (*core.Components, error) {
	key := fmt.Sprintf("%s|%d", sc.id, level)
	rr.mu.Lock()
	slot, ok := rr.designs[key]
	if !ok {
		slot = &designSlot{}
		rr.designs[key] = slot
	}
	rr.mu.Unlock()
	slot.once.Do(func() {
		t0 := time.Now()
		view, err := sc.sc.AtLevel(level)
		if err == nil {
			slot.comp, err = view.Components()
		}
		slot.err = err
		tr.record(parent, req, "core.design", t0, time.Now(), map[string]any{"scene": sc.id, "level": level})
	})
	return slot.comp, slot.err
}

func (rr *refRenderer) generator(sc *scene, level int, seed uint64, comp *core.Components) (any, error) {
	key := fmt.Sprintf("%s|%d|%d", sc.id, level, seed)
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if g, ok := rr.gens[key]; ok {
		return g, nil
	}
	var g any
	if comp.Blender == nil {
		g = convgen.NewGenerator(comp.Kernels[0], seed)
	} else {
		ig, err := inhomo.NewGenerator(comp.Kernels, comp.Blender, seed)
		if err != nil {
			return nil, err
		}
		ig.Workers = 1
		g = ig
	}
	rr.gens[key] = g
	return g, nil
}

// render produces the bytes the daemon serves for r. With a tracer it
// records a span per layer call under parent, plus two replayed
// children the layer makes internally: the noise fill over the window
// and kernel halo, and (inhomo) the blend weight maps.
func (rr *refRenderer) render(r request, tr *tracer, parent, req int) ([]byte, error) {
	level := r.cacheLevel()
	comp, err := rr.design(r.scene, level, tr, parent, req)
	if err != nil {
		return nil, err
	}
	g, err := rr.generator(r.scene, level, r.seed, comp)
	if err != nil {
		return nil, err
	}
	x0, y0, nx, ny := r.window()
	var out64 *grid.Grid
	var out32 *grid.Grid32
	if r.prec == core.PrecisionF32 {
		out32 = grid.New32(nx, ny)
	} else {
		out64 = grid.New(nx, ny)
	}
	var layerSpan int
	switch g := g.(type) {
	case *convgen.Generator:
		k := g.Kernel()
		t0 := time.Now()
		if out32 != nil {
			g.GenerateAtInto32(out32.Data, nx, x0, y0, nx, ny, 1)
		} else {
			g.GenerateAtInto(out64.Data, nx, x0, y0, nx, ny, 1)
		}
		layerSpan = tr.record(parent, req, "convgen.render_"+r.prec, t0, time.Now(), map[string]any{
			"engine": engineName(g.EngineFor(nx, ny)), "kernel": fmt.Sprintf("%dx%d", k.Nx, k.Ny),
			"samples": nx * ny, "taps": k.Nx * k.Ny})
	case *inhomo.Generator:
		t0 := time.Now()
		if out32 != nil {
			g.GenerateAtInto32(out32, x0, y0)
		} else {
			g.GenerateAtInto(out64, x0, y0)
		}
		layerSpan = tr.record(parent, req, "inhomo.render_"+r.prec, t0, time.Now(), map[string]any{
			"components": len(comp.Kernels), "samples": nx * ny})
		if tr != nil {
			t1 := time.Now()
			for m := range comp.Kernels {
				g.WeightMap(m, x0, y0, nx, ny)
			}
			tr.record(layerSpan, req, "inhomo.weightmap", t1, time.Now(), nil)
		}
	}
	if tr != nil {
		traceFill(tr, layerSpan, req, r.seed, comp.Kernels, x0, y0, nx, ny, r.prec == core.PrecisionF32)
	}
	if r.format == "png" {
		t0 := time.Now()
		var buf bytes.Buffer
		src := out64
		if out32 != nil {
			src = out32.Widen()
		}
		if err := render.PNG(&buf, src); err != nil {
			return nil, err
		}
		tr.record(parent, req, "render.png", t0, time.Now(), map[string]any{"samples": nx * ny})
		return buf.Bytes(), nil
	}
	body := make([]byte, 4*nx*ny)
	if out32 != nil {
		for i, v := range out32.Data {
			binary.LittleEndian.PutUint32(body[4*i:], math.Float32bits(v))
		}
	} else {
		for i, v := range out64.Data {
			binary.LittleEndian.PutUint32(body[4*i:], math.Float32bits(float32(v)))
		}
	}
	return body, nil
}

// traceFill replays the noise pass of a window render, FillRow or
// FillRow32 over the window plus the widest kernel's halo, as an
// rng.fill span under parent.
func traceFill(tr *tracer, parent, req int, seed uint64, kernels []*convgen.Kernel, x0, y0 int64, nx, ny int, f32 bool) {
	kx, ky := 0, 0
	for _, k := range kernels {
		kx, ky = max(kx, k.Nx), max(ky, k.Ny)
	}
	wx, wy := nx+kx-1, ny+ky-1
	field := rng.NewField(seed)
	t0 := time.Now()
	if f32 {
		row := make([]float32, wx)
		for j := 0; j < wy; j++ {
			field.FillRow32(row, x0-int64(kx/2), y0-int64(ky/2)+int64(j))
		}
	} else {
		row := make([]float64, wx)
		for j := 0; j < wy; j++ {
			field.FillRow(row, x0-int64(kx/2), y0-int64(ky/2)+int64(j))
		}
	}
	tr.record(parent, req, "rng.fill", t0, time.Now(), map[string]any{"samples": wx * wy})
}
