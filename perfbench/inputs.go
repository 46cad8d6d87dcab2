package main

import (
	"fmt"

	"roughsurface/internal/core"
	"roughsurface/internal/rng"
	"roughsurface/internal/service"
)

// The fixture scenes: the same documents the service tests and the CI
// smoke use. The homogeneous one has a pinned content address and a
// pinned golden tile.
const (
	fixtureHomog = `{"nx":64,"ny":64,"method":"homogeneous","spectrum":{"family":"gaussian","h":1,"cl":8}}`
	fixturePlate = `{"nx":64,"ny":64,"method":"plate","regions":[
	  {"shape":"rect","x1":0,"t":4,"spectrum":{"family":"gaussian","h":1,"cl":8}},
	  {"shape":"circle","cx":16,"cy":0,"r":20,"t":4,"spectrum":{"family":"exponential","h":2,"cl":5}}]}`
	fixturePoint = `{"nx":64,"ny":64,"method":"point","transition_t":10,"points":[
	  {"x":-20,"y":0,"spectrum":{"family":"gaussian","h":1,"cl":8}},
	  {"x":20,"y":0,"spectrum":{"family":"gaussian","h":2.5,"cl":8}}]}`

	goldenSceneID = "63d26a72bd0db3592b40fdb04c733d4a"
	// goldenTileSHA is the SHA-256 of the f32 tile 0,0,64x64 at seed 1
	// of the homogeneous fixture, pinned on amd64.
	goldenTileSHA = "c489266437db4399309159e8e96ed6998423d7d28d5740b2ce569abeb6c36688"
	goldenTile    = "0,0,64x64?seed=1&format=f32"
)

// scene is one registered scene document with its content address.
type scene struct {
	doc []byte
	id  string
	sc  core.Scene // normalized, as the registry stores it
}

// kind names the scene's method for the per-class latency report.
func (s *scene) kind() string { return s.sc.Method }

func newScene(doc string) (*scene, error) {
	sc, err := core.ParseScene([]byte(doc))
	if err != nil {
		return nil, err
	}
	sc = sc.Normalized()
	id, _, err := service.SceneID(sc)
	if err != nil {
		return nil, err
	}
	return &scene{doc: []byte(doc), id: id, sc: sc}, nil
}

// request is one tile operation of a workload.
type request struct {
	scene    *scene
	register bool  // POST the scene first, so its kernel design runs on the request path
	level    int   // pyramid level, or -1 for the free-window route
	x, y     int64 // pyramid tile coordinates, or the free window's origin
	nx, ny   int   // window size in samples
	seed     uint64
	format   string // f32 or png
	prec     string // f32 or f64
	node     int    // fleet node the request is sent to
}

func (r request) path() string {
	q := fmt.Sprintf("?seed=%d&format=%s&precision=%s", r.seed, r.format, r.prec)
	if r.level < 0 {
		return fmt.Sprintf("/v1/scene/%s/tile/%d,%d,%dx%d%s", r.scene.id, r.x, r.y, r.nx, r.ny, q)
	}
	return fmt.Sprintf("/v1/scene/%s/tile/%d/%d,%d%s", r.scene.id, r.level, r.x, r.y, q)
}

// window returns the request's lattice window on its level.
func (r request) window() (x0, y0 int64, nx, ny int) {
	if r.level < 0 {
		return r.x, r.y, r.nx, r.ny
	}
	return r.x * int64(r.nx), r.y * int64(r.ny), r.nx, r.ny
}

// cacheLevel is the pyramid level the daemon counts the request under.
func (r request) cacheLevel() int {
	if r.level < 0 {
		return 0
	}
	return r.level
}

// draws wraps an internal/rng source with the bounded draws the input
// generators need. Each connection's stream owns one, derived from the
// workload seed, the connection index and a per-workload salt.
type draws struct{ src *rng.Source }

func newDraws(seed uint64, k int, salt uint64) draws {
	return draws{rng.NewSource(seed ^ salt ^ uint64(k+1)*0x9e3779b97f4a7c15)}
}

func (d draws) intN(n int) int       { return int(d.src.Uint64() % uint64(n)) }
func (d draws) int64N(n int64) int64 { return int64(d.src.Uint64() % uint64(n)) }

// shuffle is a Fisher–Yates shuffle of n elements.
func (d draws) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, d.intN(i+1))
	}
}

// stream is one connection's infinite, seed-determined request sequence.
type stream interface {
	next() request
}

// Zoom sessions: a viewer lands at a random spot, pans a 2×2-tile
// viewport at the top level, zooms in level by level (panning at each),
// then zooms back out. Session centres spread over ±zoomSpan level-0
// tiles, so sessions rarely share tiles: hits come from the session's
// own revisits and from neighbour prefetch.
const (
	zoomSpan = 1 << 12
	zoomTop  = 3
)

type zoomStream struct {
	rng   draws
	sc    *scene
	seed  uint64 // surface seed; distinct per stream so streams never share a tile
	edge  int
	nodes int
	k, n  int
	queue []request
}

func newZoomStream(seed uint64, k int, sc *scene, edge, nodes int) *zoomStream {
	return &zoomStream{
		rng:  newDraws(seed, k, 0x5a00),
		sc:   sc,
		seed: uint64(k) + 1, edge: edge, nodes: nodes, k: k,
	}
}

func (z *zoomStream) next() request {
	if len(z.queue) == 0 {
		z.queue = z.session()
	}
	r := z.queue[0]
	z.queue = z.queue[1:]
	r.node = (z.n + z.k) % z.nodes
	z.n++
	return r
}

// panDirs are the one-tile pan steps; a pan keeps two of the viewport's
// four tiles and brings in two neighbours of the tiles just served.
var panDirs = [4][2]int64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}

// zoomPans is the number of pans at each level on the way in.
const zoomPans = 3

func (z *zoomStream) session() []request {
	var out []request
	vx := (z.rng.int64N(2*zoomSpan) - zoomSpan) >> zoomTop
	vy := (z.rng.int64N(2*zoomSpan) - zoomSpan) >> zoomTop
	view := func(level int) {
		for dy := int64(0); dy < 2; dy++ {
			for dx := int64(0); dx < 2; dx++ {
				out = append(out, request{scene: z.sc, level: level, x: vx + dx, y: vy + dy,
					nx: z.edge, ny: z.edge, seed: z.seed, format: "f32", prec: "f32"})
			}
		}
	}
	pan := func() {
		d := panDirs[z.rng.intN(len(panDirs))]
		vx += d[0]
		vy += d[1]
	}
	for level := zoomTop; level >= 0; level-- {
		view(level)
		for p := 0; p < zoomPans; p++ {
			pan()
			view(level)
		}
		if level > 0 {
			// Zoom in about the viewport centre (tile corner vx+1).
			vx, vy = 2*vx+1, 2*vy+1
		}
	}
	for level := 1; level <= zoomTop; level++ {
		vx, vy = (vx+1)>>1-1, (vy+1)>>1-1
		view(level)
		pan()
		view(level)
	}
	return out
}

// Cold-mixed requests: distinct free windows over the three fixtures,
// f32/f64 at 1:1, f32/png at 7:1, 128²/256² at 3:1, and one request in
// churnEvery registering a new homogeneous scene first. Requests come in
// blocks holding every combination exactly once, in random order, so
// every seed runs the same mix. Homogeneous windows spread over ±2^30;
// the plate and point windows stay within ±coldFeature of the origin,
// where their regions meet, since far away they render as a single
// homogeneous component.
const (
	coldSpan     = 1 << 30
	coldFeature  = 384
	churnEvery   = 24
	seedsPerConn = 4
)

// coldClass is one combination of the cold-mixed mix.
type coldClass struct {
	fixture int
	prec    string
	format  string
	edge    int
	churn   bool
}

type coldStream struct {
	rng      draws
	fixtures []*scene // homog, plate, point
	k        int
	used     map[string]bool
	block    []coldClass
}

func newColdStream(seed uint64, k int, fixtures []*scene) *coldStream {
	return &coldStream{
		rng:      newDraws(seed, k, 0xc01d),
		fixtures: fixtures,
		k:        k,
		used:     make(map[string]bool),
	}
}

// newBlock lays out every combination once, shuffled, with every
// churnEvery-th request turned into a new-scene registration.
func (c *coldStream) newBlock() []coldClass {
	var b []coldClass
	for f := range c.fixtures {
		for _, prec := range []string{"f32", "f64"} {
			for _, edge := range []int{128, 128, 128, 256} {
				for i := 0; i < 8; i++ {
					format := "f32"
					if i == 0 {
						format = "png"
					}
					b = append(b, coldClass{fixture: f, prec: prec, format: format, edge: edge})
				}
			}
		}
	}
	c.rng.shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	for i := 0; i < len(b); i += churnEvery {
		b[i].churn = true
	}
	return b
}

func (c *coldStream) next() request {
	if len(c.block) == 0 {
		c.block = c.newBlock()
	}
	cl := c.block[0]
	c.block = c.block[1:]
	for {
		r := request{level: -1, format: cl.format, prec: cl.prec, nx: cl.edge, ny: cl.edge,
			scene: c.fixtures[cl.fixture],
			seed:  uint64(c.k*seedsPerConn + 1 + c.rng.intN(seedsPerConn))}
		fixture := cl.fixture
		if cl.churn {
			doc := fmt.Sprintf(`{"nx":64,"ny":64,"method":"homogeneous","spectrum":{"family":"gaussian","h":1,"cl":%.4f}}`,
				3+9*c.rng.src.Float64())
			sc, err := newScene(doc)
			if err != nil {
				panic(err) // the template is valid for every cl in range
			}
			r.scene, r.register, fixture = sc, true, 0
		}
		if fixture == 0 {
			r.x = c.rng.int64N(2*coldSpan) - coldSpan
			r.y = c.rng.int64N(2*coldSpan) - coldSpan
		} else {
			r.x = c.rng.int64N(2*coldFeature) - coldFeature - int64(r.nx/2)
			r.y = c.rng.int64N(2*coldFeature) - coldFeature - int64(r.ny/2)
		}
		key := r.path()
		if c.used[key] {
			continue
		}
		c.used[key] = true
		return r
	}
}
