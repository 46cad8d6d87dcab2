package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"time"

	"roughsurface/internal/par"
)

// sample is one completed (or abandoned) tile operation.
type sample struct {
	req      request
	due      time.Time // open loop: when the schedule said to send; closed loop: when sent
	sent     time.Time
	done     time.Time
	code     int    // final HTTP status; 0 = transport error or never sent
	cache    string // X-Cache
	servedBy string // X-RRS-Served-By
	ok       bool   // 200 with a well-formed body of the expected size
	body     []byte // kept only for spot-checked responses
	err      string
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// lateness is how long the generator itself overshot the send time: the
// delay past the later of the due time and the previous response.
func lateness(prevDone time.Time, s sample) time.Duration {
	ready := s.due
	if prevDone.After(ready) {
		ready = prevDone
	}
	return s.sent.Sub(ready)
}

// conn is one load-generating connection: one request in flight at a time.
type conn struct {
	client *http.Client
	urls   []string
	gen    stream
	k      int
	keep   func(k, i int) bool // whether to keep response i's body for the spot check
	issued int
	buf    bytes.Buffer // response body, reused so reading allocates nothing
}

func newConn(urls []string, gen stream, k int, keep func(k, i int) bool) *conn {
	return &conn{
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		urls: urls, gen: gen, k: k, keep: keep,
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// phase is the outcome of one load phase.
type phase struct {
	samples  []sample
	late     []float64 // generator lateness per request, ms (open loop)
	unsent   int       // requests due before the deadline but never sent
	start    time.Time
	deadline time.Time // no request was sent (closed) or due (open) after this
	end      time.Time // last completion
	perConn  []int     // requests issued per connection
	maxQueue float64
}

// runOpen drives each connection on its own fixed schedule at rate/len(conns)
// requests per second. Every request due before the deadline is sent, late
// if the previous one is still outstanding, and timed from when it was
// due; in-flight requests run to completion. A connection that falls more
// than backlogCap behind stops, and its remaining due requests count as
// failures.
func runOpen(conns []*conn, rate float64, dur time.Duration) *phase {
	const backlogCap = 5 * time.Second
	interval := time.Duration(float64(len(conns)) / rate * float64(time.Second))
	return runPhase(conns, dur, func(c *conn, start, deadline time.Time, out *connResult) {
		var prevDone time.Time
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			if !due.Before(deadline) {
				return
			}
			if time.Since(deadline) > backlogCap {
				out.unsent += int(deadline.Sub(due)/interval) + 1
				return
			}
			r := c.gen.next()
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			s := c.do(r, due)
			out.late = append(out.late, ms(lateness(prevDone, s)))
			prevDone = s.done
			out.samples = append(out.samples, s)
		}
	})
}

// runClosed drives each connection back to back until the deadline; the
// request in flight at the deadline completes.
func runClosed(conns []*conn, dur time.Duration) *phase {
	return runPhase(conns, dur, func(c *conn, _, deadline time.Time, out *connResult) {
		for time.Now().Before(deadline) {
			r := c.gen.next()
			out.samples = append(out.samples, c.do(r, time.Now()))
		}
	})
}

type connResult struct {
	samples []sample
	late    []float64
	unsent  int
}

func runPhase(conns []*conn, dur time.Duration, drive func(c *conn, start, deadline time.Time, out *connResult)) *phase {
	start := time.Now()
	deadline := start.Add(dur)
	res := make([]connResult, len(conns))
	par.ForEach(len(conns), len(conns), func(k int) { drive(conns[k], start, deadline, &res[k]) })
	p := &phase{start: start, deadline: deadline, end: start}
	for _, r := range res {
		p.samples = append(p.samples, r.samples...)
		p.late = append(p.late, r.late...)
		p.unsent += r.unsent
		p.perConn = append(p.perConn, len(r.samples))
	}
	for _, s := range p.samples {
		if s.done.After(p.end) {
			p.end = s.done
		}
	}
	return p
}

// do sends one tile operation: the scene registration first when the
// request carries one, then the tile GET. The body is read in full and
// its size and framing checked.
func (c *conn) do(r request, due time.Time) sample {
	i := c.issued
	c.issued++
	s := sample{req: r, due: due, sent: time.Now()}
	base := c.urls[r.node]
	if r.register {
		resp, err := c.client.Post(base+"/v1/scene", "application/json", bytes.NewReader(r.scene.doc))
		if err != nil {
			s.err = err.Error()
			s.done = time.Now()
			return s
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			s.code = resp.StatusCode
			s.err = "scene post: " + resp.Status
			s.done = time.Now()
			return s
		}
	}
	resp, err := c.client.Get(base + r.path())
	if err != nil {
		s.err = err.Error()
		s.done = time.Now()
		return s
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	body := c.buf.Bytes()
	s.code = resp.StatusCode
	s.cache = resp.Header.Get("X-Cache")
	s.servedBy = resp.Header.Get("X-RRS-Served-By")
	switch {
	case err != nil:
		s.err = err.Error()
	case s.code != http.StatusOK:
		s.err = fmt.Sprintf("status %d: %s", s.code, strings.TrimSpace(string(body)))
	default:
		if e := checkBody(r, body); e != "" {
			s.err = e
		} else {
			s.ok = true
		}
	}
	if s.ok && c.keep != nil && c.keep(c.k, i) {
		s.body = bytes.Clone(body)
	}
	return s
}

// checkBody verifies the response framing: the exact f32 length, or a
// PNG whose header carries the window's dimensions.
func checkBody(r request, body []byte) string {
	if r.format == "f32" {
		if want := 4 * r.nx * r.ny; len(body) != want {
			return fmt.Sprintf("f32 tile is %d bytes, want %d", len(body), want)
		}
		return ""
	}
	const sig = "\x89PNG\r\n\x1a\n"
	if len(body) < 24 || string(body[:8]) != sig || string(body[12:16]) != "IHDR" {
		return "png tile has no PNG header"
	}
	w := binary.BigEndian.Uint32(body[16:20])
	h := binary.BigEndian.Uint32(body[20:24])
	if int(w) != r.nx || int(h) != r.ny {
		return fmt.Sprintf("png tile is %dx%d, want %dx%d", w, h, r.nx, r.ny)
	}
	return ""
}

// spotKeep selects about one response in every spotEvery for the
// byte-for-byte comparison, by a hash of (seed, connection, index).
func spotKeep(seed uint64, every int) func(k, i int) bool {
	return func(k, i int) bool {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%d/%d", seed, k, i)
		return h.Sum64()%uint64(every) == 0
	}
}

// rates returns the median, over the whole seconds of the phase, of the
// well-formed tiles and surface samples completed per second. The median
// keeps a brief stall of the shared host from moving the figure.
func (p *phase) rates() (tiles, samples float64) {
	n := int(p.deadline.Sub(p.start) / time.Second)
	if n < 1 {
		n = 1
	}
	perTile := make([]float64, n)
	perSample := make([]float64, n)
	for _, s := range p.samples {
		w := int(s.done.Sub(p.start) / time.Second)
		if s.ok && w < n {
			perTile[w]++
			perSample[w] += float64(s.req.nx * s.req.ny)
		}
	}
	return median(perTile), median(perSample)
}
