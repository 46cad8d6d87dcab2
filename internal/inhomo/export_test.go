package inhomo

import "roughsurface/internal/grid"

// TileMasks is the per-tile support masks of the default tiling of the
// nx×ny window at (i0, j0), computed without rendering anything.
func TileMasks(g *Generator, i0, j0 int64, nx, ny int) [][]bool {
	return g.tileMasks(grid.Tiling(nx, ny, g.tileSize(), g.tileSize()), i0, j0)
}
