package render

import (
	"image"
	"image/color"
	"image/png"
	"io"
	"math"

	"roughsurface/internal/grid"
)

// PNG writes g as a terrain-colormapped PNG, sharing the palette and
// symmetric normalization of PPM (heights scaled by the max |z| so zero
// stays at the shoreline color) and the same orientation: +y up, so
// image row 0 is the grid's top row. The stdlib encoder is
// deterministic for identical pixels, which the tile service relies on
// for byte-identical cached and uncached responses.
func PNG(w io.Writer, g *grid.Grid) error {
	min, max := g.MinMax()
	limit := math.Max(math.Abs(min), math.Abs(max))
	if limit == 0 {
		limit = 1
	}
	img := image.NewNRGBA(image.Rect(0, 0, g.Nx, g.Ny))
	for iy := 0; iy < g.Ny; iy++ {
		row := g.Row(iy)
		for ix := 0; ix < g.Nx; ix++ {
			r, gg, b := terrainColor(row[ix] / limit)
			img.SetNRGBA(ix, g.Ny-1-iy, color.NRGBA{R: r, G: gg, B: b, A: 255})
		}
	}
	return png.Encode(w, img)
}
