package geom

import (
	"fmt"
	"math"
)

// Grid is a uniform-cell spatial index over integer item IDs. With the
// cell size set to the radio range, a range query touches at most the 3×3
// block of cells around the query point, making neighbor discovery O(k)
// in the number of nearby items instead of O(n) over all nodes.
//
// Items are dense small integers (node IDs); the index stores positions
// itself so callers update positions through it.
type Grid struct {
	arena    Rect
	cellSize float64
	cols     int
	rows     int
	cells    [][]int32 // cell -> item IDs, unordered
	pos      []Point   // item ID -> position
	cellOf   []int32   // item ID -> cell index, -1 if absent
	present  []bool    // item ID -> inserted?
}

// NewGrid creates an index over arena with the given cell size (typically
// the radio range) and capacity for n items with IDs in [0, n).
func NewGrid(arena Rect, cellSize float64, n int) *Grid {
	if cellSize <= 0 {
		panic("geom: NewGrid with non-positive cell size")
	}
	if arena.W <= 0 || arena.H <= 0 {
		panic("geom: NewGrid with empty arena")
	}
	cols := int(math.Ceil(arena.W/cellSize)) + 1
	rows := int(math.Ceil(arena.H/cellSize)) + 1
	g := &Grid{
		arena:    arena,
		cellSize: cellSize,
		cols:     cols,
		rows:     rows,
		cells:    make([][]int32, cols*rows),
		pos:      make([]Point, n),
		cellOf:   make([]int32, n),
		present:  make([]bool, n),
	}
	for i := range g.cellOf {
		g.cellOf[i] = -1
	}
	return g
}

func (g *Grid) cellIndex(p Point) int32 {
	cx := int(p.X / g.cellSize)
	cy := int(p.Y / g.cellSize)
	if cx < 0 {
		cx = 0
	} else if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.rows {
		cy = g.rows - 1
	}
	return int32(cy*g.cols + cx)
}

// Insert adds item id at position p. Inserting an existing id panics;
// use Move.
func (g *Grid) Insert(id int, p Point) {
	if g.present[id] {
		panic(fmt.Sprintf("geom: Insert of already-present id %d", id))
	}
	g.present[id] = true
	g.pos[id] = p
	c := g.cellIndex(p)
	g.cellOf[id] = c
	g.cells[c] = append(g.cells[c], int32(id))
}

// Remove deletes item id from the index. Removing an absent id panics.
func (g *Grid) Remove(id int) {
	if !g.present[id] {
		panic(fmt.Sprintf("geom: Remove of absent id %d", id))
	}
	g.removeFromCell(id, g.cellOf[id])
	g.present[id] = false
	g.cellOf[id] = -1
}

func (g *Grid) removeFromCell(id int, c int32) {
	cell := g.cells[c]
	for i, v := range cell {
		if v == int32(id) {
			cell[i] = cell[len(cell)-1]
			g.cells[c] = cell[:len(cell)-1]
			return
		}
	}
	panic(fmt.Sprintf("geom: id %d not found in its cell", id))
}

// Move updates the position of item id, rebinning only if it changed cell.
func (g *Grid) Move(id int, p Point) {
	if !g.present[id] {
		panic(fmt.Sprintf("geom: Move of absent id %d", id))
	}
	g.pos[id] = p
	c := g.cellIndex(p)
	if old := g.cellOf[id]; c != old {
		g.removeFromCell(id, old)
		g.cellOf[id] = c
		g.cells[c] = append(g.cells[c], int32(id))
	}
}

// Pos returns the stored position of item id.
func (g *Grid) Pos(id int) Point { return g.pos[id] }

// Near appends to dst the IDs of all items within radius of p, excluding
// exclude (pass -1 to exclude nothing), and returns the extended slice.
// The result order is unspecified. The returned slice aliases dst's
// backing array when capacity allows.
func (g *Grid) Near(dst []int, p Point, radius float64, exclude int) []int {
	if radius <= 0 {
		return dst
	}
	r2 := radius * radius
	cx0 := int((p.X - radius) / g.cellSize)
	cx1 := int((p.X + radius) / g.cellSize)
	cy0 := int((p.Y - radius) / g.cellSize)
	cy1 := int((p.Y + radius) / g.cellSize)
	if cx0 < 0 {
		cx0 = 0
	}
	if cy0 < 0 {
		cy0 = 0
	}
	if cx1 >= g.cols {
		cx1 = g.cols - 1
	}
	if cy1 >= g.rows {
		cy1 = g.rows - 1
	}
	for cy := cy0; cy <= cy1; cy++ {
		base := cy * g.cols
		for cx := cx0; cx <= cx1; cx++ {
			for _, id := range g.cells[base+cx] {
				if int(id) == exclude {
					continue
				}
				if g.pos[id].Dist2(p) <= r2 {
					dst = append(dst, int(id))
				}
			}
		}
	}
	return dst
}
