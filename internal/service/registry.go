package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"roughsurface/internal/convgen"
	"roughsurface/internal/core"
	"roughsurface/internal/inhomo"
	"roughsurface/internal/simd"
)

// sceneIDLen is the hex length of a scene ID: the first 128 bits of the
// SHA-256 of the canonical scene JSON. 128 bits keeps URLs short while
// making accidental collisions implausible at any registry size.
const sceneIDLen = 32

// SceneID computes the content address of an already-validated scene:
// SHA-256 over the JSON encoding of the *normalized* scene (defaults
// applied, struct-ordered fields), truncated to sceneIDLen hex chars.
// Two submissions that differ only in formatting, key order, or
// spelled-out defaults therefore map to the same ID and share every
// cache behind it.
func SceneID(sc core.Scene) (id string, canonical []byte, err error) {
	canonical, err = json.Marshal(sc.Normalized())
	if err != nil {
		return "", nil, fmt.Errorf("service: canonicalizing scene: %w", err)
	}
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])[:sceneIDLen], canonical, nil
}

// registry maps scene IDs to their parsed scenes and lazily-built
// generation machinery. It is append-only up to maxScenes; scenes are
// small (the kernels dominate, and those are built on first tile).
type registry struct {
	mu        sync.RWMutex
	scenes    map[string]*sceneEntry
	maxScenes int
}

func newRegistry(maxScenes int) *registry {
	return &registry{scenes: make(map[string]*sceneEntry), maxScenes: maxScenes}
}

var errRegistryFull = fmt.Errorf("service: scene registry full")

// register parses, validates, and content-addresses a scene document.
// The dft generator is rejected here — it synthesizes one periodic
// grid, so it cannot serve windowed tiles (core.Components enforces
// the same rule; checking at registration turns it into a 422 instead
// of a failed first tile).
func (r *registry) register(body []byte, genWorkers, maxSeedGens int) (*sceneEntry, bool, error) {
	sc, err := core.ParseScene(body)
	if err != nil {
		return nil, false, err
	}
	sc = sc.Normalized()
	if sc.Method == core.MethodHomogeneous && sc.Generator == core.GeneratorDFT {
		return nil, false, fmt.Errorf("core: generator: dft scenes cannot be served as tiles (one periodic grid, not an unbounded surface); use conv")
	}
	id, canonical, err := SceneID(sc)
	if err != nil {
		return nil, false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.scenes[id]; ok {
		return e, false, nil
	}
	if len(r.scenes) >= r.maxScenes {
		return nil, false, errRegistryFull
	}
	e := &sceneEntry{
		ID:          id,
		Scene:       sc,
		Canonical:   canonical,
		genWorkers:  genWorkers,
		maxSeedGens: maxSeedGens,
		comps:       make(map[int]*levelComponents),
		gens:        make(map[genKey]*tileGen),
	}
	r.scenes[id] = e
	return e, true, nil
}

func (r *registry) get(id string) (*sceneEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.scenes[id]
	return e, ok
}

func (r *registry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.scenes)
}

// sceneEntry is one registered scene plus everything derived from it.
// Kernel design (the expensive, seed-independent step) runs exactly
// once per pyramid level under a levelComponents Once — sync.Once gives
// singleflight semantics, so a burst of first requests for a new
// (scene, level) blocks on a single design instead of designing per
// request. Levels are designed independently: the kernel taps are a
// function of the level's grid spacing, and a scene serving only level
// 0 never pays for coarser kernels. Generators (cheap, seed-dependent)
// are cached per (level, seed) behind a small LRU.
type sceneEntry struct {
	ID         string
	Scene      core.Scene
	Canonical  []byte
	genWorkers int

	compMu sync.Mutex
	comps  map[int]*levelComponents

	mu          sync.Mutex
	gens        map[genKey]*tileGen
	order       []genKey // LRU over (level, seed), most recent last
	maxSeedGens int
}

// levelComponents is the design singleflight slot for one pyramid
// level: kernels and weight maps re-derived at spacing Dx·2^level.
// The tapsHat spectrum LRU lives inside each level's convgen
// generators, so level keying here also keys that cache by level.
type levelComponents struct {
	once sync.Once
	err  error
	comp *core.Components
}

// genKey identifies one cached tile generator.
type genKey struct {
	level int
	seed  uint64
}

// components returns the level's kernels/blender, designing them on
// first use. Concurrent callers for the same level share one design:
// the loser of the Once race parks until the winner's design finishes,
// so ctx is accepted (and checked after the wait) even though the
// design itself is CPU-bound and runs to completion once started.
func (e *sceneEntry) components(ctx context.Context, level int) (*core.Components, error) {
	e.compMu.Lock()
	lc, ok := e.comps[level]
	if !ok {
		lc = &levelComponents{}
		e.comps[level] = lc
	}
	e.compMu.Unlock()
	lc.once.Do(func() {
		view, err := e.Scene.AtLevel(level)
		if err != nil {
			lc.err = err
			return
		}
		lc.comp, lc.err = view.Components()
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return lc.comp, lc.err
}

// tileGen renders one window of the deterministic surface for one
// (scene, seed): a homogeneous convolution, or an inhomogeneous blend
// through the tile-sparse engine. Safe for concurrent use.
type tileGen struct {
	conv    *convgen.Generator // homogeneous scenes
	inhomo  *inhomo.Generator  // plate/point scenes
	workers int
}

// renderWindow renders the window at precision F into a fresh row-major
// buffer.
func renderWindow[F simd.Float](g *tileGen, win window) []F {
	dst := make([]F, win.nx*win.ny)
	if g.conv != nil {
		convgen.RenderInto(g.conv, dst, win.nx, win.x0, win.y0, win.nx, win.ny, g.workers)
	} else {
		inhomo.RenderInto(g.inhomo, dst, win.nx, win.ny, win.x0, win.y0)
	}
	return dst
}

// generator returns the (scene, level, seed) tile generator, designing
// the level's kernels on first use. ctx bounds the wait: Once.Do can
// park a burst of first requests behind one kernel design, and a caller
// whose deadline lapsed while parked should not then start building a
// per-seed generator it will never use.
func (e *sceneEntry) generator(ctx context.Context, level int, seed uint64) (*tileGen, error) {
	comp, err := e.components(ctx, level)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	key := genKey{level, seed}
	if g, ok := e.gens[key]; ok {
		e.touch(key)
		return g, nil
	}
	g := &tileGen{workers: e.genWorkers}
	if comp.Blender == nil {
		g.conv = convgen.NewGenerator(comp.Kernels[0], seed)
	} else {
		ig, err := inhomo.NewGenerator(comp.Kernels, comp.Blender, seed)
		if err != nil {
			return nil, err
		}
		ig.Workers = e.genWorkers
		g.inhomo = ig
	}
	e.gens[key] = g
	e.order = append(e.order, key)
	if len(e.order) > e.maxSeedGens {
		old := e.order[0]
		e.order = e.order[1:]
		delete(e.gens, old)
	}
	return g, nil
}

func (e *sceneEntry) touch(key genKey) {
	for i, k := range e.order {
		if k == key {
			copy(e.order[i:], e.order[i+1:])
			e.order[len(e.order)-1] = key
			return
		}
	}
}
