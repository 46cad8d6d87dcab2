package grid

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// Binary surface format ("RRSG"): a fixed little-endian header followed
// by the raw float64 samples. Version 1.
//
//	offset size field
//	0      4    magic "RRSG"
//	4      4    version (uint32) = 1
//	8      8    Nx (int64)
//	16     8    Ny (int64)
//	24     8    Dx (float64)
//	32     8    Dy (float64)
//	40     8    X0 (float64)
//	48     8    Y0 (float64)
//	56     8·Nx·Ny samples, row-major
const (
	binaryMagic   = "RRSG"
	binaryVersion = 1
	// maxBinaryDim guards against corrupt headers causing huge allocations.
	maxBinaryDim = 1 << 24
)

// WriteTo serializes g in the binary surface format; float32 samples
// are widened to the format's float64. n counts the bytes w accepted,
// on error too, as io.WriterTo requires.
func (g *Of[F]) WriteTo(w io.Writer) (n int64, err error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	hdr := make([]byte, 4+4+6*8)
	copy(hdr, binaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:], binaryVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(int64(g.Nx)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(int64(g.Ny)))
	binary.LittleEndian.PutUint64(hdr[24:], math.Float64bits(g.Dx))
	binary.LittleEndian.PutUint64(hdr[32:], math.Float64bits(g.Dy))
	binary.LittleEndian.PutUint64(hdr[40:], math.Float64bits(g.X0))
	binary.LittleEndian.PutUint64(hdr[48:], math.Float64bits(g.Y0))
	if _, err := bw.Write(hdr); err != nil {
		return cw.n, err
	}
	buf := make([]byte, 8)
	for _, v := range g.Data {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(float64(v)))
		if _, err := bw.Write(buf); err != nil {
			return cw.n, err
		}
	}
	err = bw.Flush()
	return cw.n, err
}

// countingWriter counts the bytes its writer accepted.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Read deserializes a grid from the binary surface format.
func Read(r io.Reader) (*Grid, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("grid: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("grid: bad magic %q", magic)
	}
	hdr := make([]byte, 4+6*8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("grid: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != binaryVersion {
		return nil, fmt.Errorf("grid: unsupported version %d", v)
	}
	nx := int64(binary.LittleEndian.Uint64(hdr[4:]))
	ny := int64(binary.LittleEndian.Uint64(hdr[12:]))
	if nx < 1 || ny < 1 || nx > maxBinaryDim || ny > maxBinaryDim || nx*ny > maxBinaryDim {
		return nil, fmt.Errorf("grid: implausible dimensions %dx%d", nx, ny)
	}
	g := New(int(nx), int(ny))
	g.Dx = math.Float64frombits(binary.LittleEndian.Uint64(hdr[20:]))
	g.Dy = math.Float64frombits(binary.LittleEndian.Uint64(hdr[28:]))
	g.X0 = math.Float64frombits(binary.LittleEndian.Uint64(hdr[36:]))
	g.Y0 = math.Float64frombits(binary.LittleEndian.Uint64(hdr[44:]))
	buf := make([]byte, 8)
	for i := range g.Data {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("grid: reading sample %d: %w", i, err)
		}
		g.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
	}
	return g, nil
}

// SaveFile writes g to path in the binary surface format.
func (g *Of[F]) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := g.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a binary surface file.
func LoadFile(path string) (*Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// WriteCSV emits the samples as Ny lines of Nx comma-separated values,
// preceded by a comment header carrying the geometry. Gnuplot and
// spreadsheet tools read this directly.
func (g *Of[F]) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# nx=%d ny=%d dx=%g dy=%g x0=%g y0=%g\n", g.Nx, g.Ny, g.Dx, g.Dy, g.X0, g.Y0)
	for iy := 0; iy < g.Ny; iy++ {
		row := g.Row(iy)
		for ix, v := range row {
			if ix > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(float64(v), 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteXYZ emits one "x y z" line per sample — the format gnuplot's
// splot and most point-cloud tools accept for 3D surface plots like the
// paper's figures.
func (g *Of[F]) WriteXYZ(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for iy := 0; iy < g.Ny; iy++ {
		for ix := 0; ix < g.Nx; ix++ {
			x, y := g.XY(ix, iy)
			fmt.Fprintf(bw, "%g %g %g\n", x, y, g.At(ix, iy))
		}
		if err := bw.WriteByte('\n'); err != nil { // blank line between scan rows for splot
			return err
		}
	}
	return bw.Flush()
}
