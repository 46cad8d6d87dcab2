package grid

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"testing/quick"

	"roughsurface/internal/approx"
	"roughsurface/internal/rng"
)

func randomGrid(nx, ny int, seed int64) *Grid {
	g := NewCentered(nx, ny, 2, 3)
	rng.NewGaussian(uint64(seed)).Fill(g.Data)
	return g
}

// randomOf is randomGrid rounded to precision F, so one generic test
// body covers both Grid and Grid32.
func randomOf[F float](nx, ny int, seed int64) *Of[F] {
	w := randomGrid(nx, ny, seed)
	g := NewOf[F](nx, ny)
	g.Dx, g.Dy, g.X0, g.Y0 = w.Dx, w.Dy, w.X0, w.Y0
	for i, v := range w.Data {
		g.Data[i] = F(v)
	}
	return g
}

func TestNewCenteredOrigin(t *testing.T) {
	g := NewCentered(8, 6, 1, 1)
	x, y := g.XY(4, 3) // the center sample
	if x != 0 || y != 0 {
		t.Errorf("center sample at (%g,%g), want (0,0)", x, y)
	}
	x, y = g.XY(0, 0)
	if !approx.Exact(x, -4) || !approx.Exact(y, -3) {
		t.Errorf("corner sample at (%g,%g), want (-4,-3)", x, y)
	}
}

func TestAtSetIndex(t *testing.T) {
	g := New(5, 4)
	g.Set(3, 2, 7.5)
	if !approx.Exact(g.At(3, 2), 7.5) {
		t.Error("Set/At mismatch")
	}
	if !approx.Exact(g.Data[g.Index(3, 2)], 7.5) {
		t.Error("Index inconsistent with At")
	}
}

func TestCloneIsDeep(t *testing.T) {
	testCloneIsDeep[float64](t)
	testCloneIsDeep[float32](t)
}

func testCloneIsDeep[F float](t *testing.T) {
	g := randomOf[F](4, 4, 1)
	c := g.Clone()
	c.Data[0] = 999
	if approx.Exact(float64(g.Data[0]), 999) {
		t.Errorf("%T: Clone shares backing array", g)
	}
}

func TestSubPreservesCoordinates(t *testing.T) {
	testSubPreservesCoordinates[float64](t)
	testSubPreservesCoordinates[float32](t)
}

func testSubPreservesCoordinates[F float](t *testing.T) {
	g := randomOf[F](16, 12, 2)
	s := g.Sub(4, 3, 8, 6)
	if s.Nx != 8 || s.Ny != 6 {
		t.Fatalf("%T: Sub size %dx%d", g, s.Nx, s.Ny)
	}
	for iy := 0; iy < s.Ny; iy++ {
		for ix := 0; ix < s.Nx; ix++ {
			if !approx.Exact(float64(s.At(ix, iy)), float64(g.At(ix+4, iy+3))) {
				t.Fatalf("%T: sample mismatch at (%d,%d)", g, ix, iy)
			}
			sx, sy := s.XY(ix, iy)
			gx, gy := g.XY(ix+4, iy+3)
			if !approx.Exact(sx, gx) || !approx.Exact(sy, gy) {
				t.Fatalf("%T: coordinate mismatch at (%d,%d)", g, ix, iy)
			}
		}
	}
}

func TestSubOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sub out of range should panic")
		}
	}()
	randomGrid(4, 4, 3).Sub(2, 2, 4, 4)
}

func TestMinMaxMean(t *testing.T) {
	testMinMaxMean[float64](t)
	testMinMaxMean[float32](t)
}

func testMinMaxMean[F float](t *testing.T) {
	g := NewOf[F](2, 2)
	copy(g.Data, []F{1, -3, 5, 1})
	min, max := g.MinMax()
	if !approx.Exact(float64(min), -3) || !approx.Exact(float64(max), 5) {
		t.Errorf("%T: MinMax = (%g,%g)", g, min, max)
	}
	if !approx.Exact(g.Mean(), 1) {
		t.Errorf("%T: Mean = %g", g, g.Mean())
	}
}

// TestGrid32Widen: the f64 view of an f32 tile must be the exact
// widening of every sample with metadata carried through.
func TestGrid32Widen(t *testing.T) {
	g32 := randomOf[float32](9, 7, 3)
	g32.Dx, g32.Y0 = 0.5, -10
	w := g32.Widen()
	if w.Nx != g32.Nx || w.Ny != g32.Ny || !approx.Exact(w.Dx, g32.Dx) || !approx.Exact(w.Dy, g32.Dy) ||
		!approx.Exact(w.X0, g32.X0) || !approx.Exact(w.Y0, g32.Y0) {
		t.Fatalf("Widen metadata mismatch: %+v", w)
	}
	for i, v := range g32.Data {
		if !approx.Exact(w.Data[i], float64(v)) {
			t.Fatalf("Widen[%d] = %g, want %g", i, w.Data[i], v)
		}
	}
}

func TestAddScaledScale(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	copy(b.Data, []float64{10, 20, 30, 40})
	a.AddScaled(0.5, b)
	want := []float64{6, 12, 18, 24}
	for i := range want {
		if !approx.Exact(a.Data[i], want[i]) {
			t.Fatalf("AddScaled[%d] = %g want %g", i, a.Data[i], want[i])
		}
	}
	a.Scale(2)
	if !approx.Exact(a.Data[0], 12) {
		t.Error("Scale failed")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := randomGrid(17, 9, 4)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualWithin(g, 0) {
		t.Error("binary round trip changed the grid")
	}
}

// pinGrid is a fixed 40×30 grid, built without the RNG, whose 9656-byte
// RRSG encoding spans three bufio buffers. It carries -0, +Inf and the
// smallest subnormal among exact binary fractions.
func pinGrid() *Grid {
	g := NewCentered(40, 30, 0.5, 0.25)
	for i := range g.Data {
		g.Data[i] = float64(i%97)*0.125 - 6
	}
	g.Data[1] = math.Copysign(0, -1)
	g.Data[2] = math.Inf(1)
	g.Data[3] = math.SmallestNonzeroFloat64
	return g
}

// TestBinaryBytesPinned pins the RRSG bytes of pinGrid, and checks that
// a float32 grid encodes exactly as its float64 widening.
func TestBinaryBytesPinned(t *testing.T) {
	const want = "cbc0d63f7f6a9b8da9399c62046334286f7c35392176903e763c868c0b411c5c"
	g := pinGrid()
	var buf bytes.Buffer
	n, err := g.WriteTo(&buf)
	if err != nil || n != int64(buf.Len()) || n != 56+8*40*30 {
		t.Fatalf("WriteTo = (%d, %v), buffer holds %d bytes", n, err, buf.Len())
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("RRSG SHA-256 = %s, want %s", got, want)
	}
	g32 := &Grid32{Nx: g.Nx, Ny: g.Ny, Dx: g.Dx, Dy: g.Dy, X0: g.X0, Y0: g.Y0, Data: make([]float32, g.Len())}
	for i, v := range g.Data {
		g32.Data[i] = float32(v)
	}
	var b32, wide bytes.Buffer
	if _, err := g32.WriteTo(&b32); err != nil {
		t.Fatal(err)
	}
	if _, err := g32.Widen().WriteTo(&wide); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b32.Bytes(), wide.Bytes()) {
		t.Error("Grid32 RRSG bytes differ from its widening's")
	}
}

var errWriterFull = errors.New("writer full")

// failAfter accepts the first k bytes written to it, then fails.
type failAfter struct{ k int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.k {
		f.k -= len(p)
		return len(p), nil
	}
	n := f.k
	f.k = 0
	return n, errWriterFull
}

// TestWriteToCountsAcceptedBytes: when the writer fails, WriteTo still
// reports the bytes it accepted, as io.WriterTo requires — including
// whole buffers flushed before the failure.
func TestWriteToCountsAcceptedBytes(t *testing.T) {
	g := pinGrid()
	for _, k := range []int{0, 100, 4096, 5000, 9655} {
		n, err := g.WriteTo(&failAfter{k: k})
		if !errors.Is(err, errWriterFull) || n != int64(k) {
			t.Errorf("writer failing after %d bytes: WriteTo = (%d, %v), want (%d, %v)", k, n, err, k, errWriterFull)
		}
	}
}

func TestBinaryRejectsCorruptHeader(t *testing.T) {
	g := randomGrid(4, 4, 5)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] = 'X' // break magic
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("corrupt magic accepted")
	}
	// Implausible dimension.
	buf.Reset()
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw = buf.Bytes()
	for i := 8; i < 16; i++ {
		raw[i] = 0xff
	}
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("implausible dimensions accepted")
	}
}

func TestBinaryRejectsTruncation(t *testing.T) {
	g := randomGrid(8, 8, 6)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Read(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := randomGrid(6, 5, 7)
	path := filepath.Join(t.TempDir(), "s.grid")
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualWithin(g, 0) {
		t.Error("file round trip changed the grid")
	}
}

func TestWriteCSVShape(t *testing.T) {
	g := randomGrid(3, 2, 8)
	var buf bytes.Buffer
	if err := g.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 { // header + 2 rows
		t.Fatalf("CSV has %d lines, want 3", len(lines))
	}
	if n := bytes.Count(lines[1], []byte(",")); n != 2 {
		t.Errorf("row has %d commas, want 2", n)
	}
}

func TestWriteXYZContainsCoordinates(t *testing.T) {
	g := NewCentered(2, 2, 10, 10)
	g.Fill(1.5)
	var buf bytes.Buffer
	if err := g.WriteXYZ(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("-10 -10 1.5")) {
		t.Errorf("XYZ output missing expected line:\n%s", buf.String())
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64, rawNx, rawNy uint8) bool {
		nx := int(rawNx)%20 + 1
		ny := int(rawNy)%20 + 1
		g := randomGrid(nx, ny, seed)
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return got.EqualWithin(g, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCGridRealAndFromReal(t *testing.T) {
	g := randomGrid(5, 4, 9)
	c := FromReal(g)
	back := c.Real(g)
	if !back.EqualWithin(g, 0) {
		t.Error("FromReal/Real round trip changed samples")
	}
	if !approx.Exact(back.Dx, g.Dx) || !approx.Exact(back.X0, g.X0) {
		t.Error("Real did not copy geometry from template")
	}
}

func TestCGridMulElem(t *testing.T) {
	a := NewC(2, 2)
	b := NewC(2, 2)
	a.Set(0, 0, complex(2, 1))
	b.Set(0, 0, complex(3, -1))
	a.MulElem(b)
	if !approx.ExactC(a.At(0, 0), complex(7, 1)) {
		t.Errorf("MulElem = %v", a.At(0, 0))
	}
}

func TestCGridMaxImagAbs(t *testing.T) {
	c := NewC(2, 2)
	c.Set(1, 1, complex(0, -0.25))
	if got := c.MaxImagAbs(); !approx.Exact(got, 0.25) {
		t.Errorf("MaxImagAbs = %g", got)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := randomGrid(4, 4, 10)
	b := a.Clone()
	b.Data[7] += 0.5
	if d := a.MaxAbsDiff(b); math.Abs(d-0.5) > 1e-15 {
		t.Errorf("MaxAbsDiff = %g", d)
	}
}

// TestTilingPartition: every sample of the raster belongs to exactly
// one tile, no tile is empty or oversized, and edge tiles absorb the
// remainder.
func TestTilingPartition(t *testing.T) {
	cases := []struct{ nx, ny, tx, ty int }{
		{1, 1, 64, 64}, {64, 64, 64, 64}, {65, 64, 64, 64},
		{100, 70, 32, 16}, {7, 31, 8, 8}, {256, 3, 64, 64},
	}
	for _, c := range cases {
		tiles := Tiling(c.nx, c.ny, c.tx, c.ty)
		seen := make([]int, c.nx*c.ny)
		for _, tl := range tiles {
			if tl.Nx < 1 || tl.Ny < 1 || tl.Nx > c.tx || tl.Ny > c.ty {
				t.Fatalf("%+v: tile %+v out of bounds", c, tl)
			}
			for j := tl.Y0; j < tl.Y0+tl.Ny; j++ {
				for i := tl.X0; i < tl.X0+tl.Nx; i++ {
					seen[j*c.nx+i]++
				}
			}
		}
		for idx, n := range seen {
			if n != 1 {
				t.Fatalf("%+v: sample %d covered %d times", c, idx, n)
			}
		}
	}
}

func TestTilingPanicsOnBadGeometry(t *testing.T) {
	for _, fn := range []func(){
		func() { Tiling(0, 4, 8, 8) },
		func() { Tiling(4, 4, 0, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			fn()
		}()
	}
}
