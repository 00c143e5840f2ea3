// Package neighbors provides fixed-radius neighbor search for SPH using a
// uniform cell grid (cell-linked lists), with optional periodic boundaries.
//
// The grid resolution adapts to the search radius so that each query scans
// at most 27 cells. Queries are safe to run concurrently once the grid is
// built, which the SPH pipeline exploits with one worker per core.
package neighbors

import (
	"math"
	"sync"

	"sphenergy/internal/par"
	"sphenergy/internal/sfc"
)

// Searcher is the neighbor-search contract shared by the cell grid and the
// octree; the SPH pipeline's closure-walk passes work against this
// interface.
type Searcher interface {
	// ForEachNeighbor invokes fn for every particle j != i within radius of
	// particle i, passing the displacement (xi - xj) and distance.
	ForEachNeighbor(i int, radius float64, fn func(j int, dx, dy, dz, dist float64))
	// CountNeighbors returns the number of neighbors within radius.
	CountNeighbors(i int, radius float64) int
}

// Grid is a uniform-cell acceleration structure over a particle set. Cell
// contents are stored CSR-style: cellOff[c]..cellOff[c+1] indexes into
// order, which lists particle indices grouped by cell in ascending order.
// The ascending order is invariant across serial and parallel builds, so
// query iteration order — and therefore the floating-point summation order
// of the SPH kernels — is deterministic.
type Grid struct {
	box        sfc.Box
	nx, ny, nz int
	cellSize   [3]float64
	cellOff    []int32 // ncells+1 prefix offsets into order
	order      []int32 // particle indices grouped by cell, ascending within each
	x, y, z    []float64

	// Binning scratch, kept on the grid so BuildGridInto rebuilds without
	// allocating once the buffers have warmed up to the problem size.
	cells  []int32 // per-particle cell index
	counts []int32 // serial build: per-cell counters
	hist   []int32 // parallel build: per-worker cell histograms
}

// parallelBuildMaxCells bounds the per-worker histogram memory of the
// parallel build (workers × ncells int32 counters); grids finer than this
// fall back to the serial counting sort.
const parallelBuildMaxCells = 1 << 20

// parallelBuildMinN is the particle count below which the serial build wins.
const parallelBuildMinN = 1 << 14

// BuildGrid creates a search grid for particles at (x, y, z) in the box,
// sized for queries up to maxRadius.
func BuildGrid(box sfc.Box, x, y, z []float64, maxRadius float64) *Grid {
	return BuildGridInto(nil, box, x, y, z, maxRadius)
}

// BuildGridInto is BuildGrid with buffer reuse: when g is non-nil its CSR
// arrays and binning scratch are recycled, so steady-state rebuilds (same
// particle count, same resolution) perform no allocations. The resulting
// layout is identical to a fresh BuildGrid. Returns g (or a new grid when
// g is nil); any outstanding queries against the previous contents must
// have finished.
func BuildGridInto(g *Grid, box sfc.Box, x, y, z []float64, maxRadius float64) *Grid {
	if maxRadius <= 0 {
		panic("neighbors: maxRadius must be positive")
	}
	if g == nil {
		g = &Grid{}
	}
	n := len(x)
	g.box, g.x, g.y, g.z = box, x, y, z
	g.nx = gridDim(box.Lx(), maxRadius)
	g.ny = gridDim(box.Ly(), maxRadius)
	g.nz = gridDim(box.Lz(), maxRadius)
	g.cellSize = [3]float64{box.Lx() / float64(g.nx), box.Ly() / float64(g.ny), box.Lz() / float64(g.nz)}
	ncells := g.nx * g.ny * g.nz
	g.cellOff = growInt32(g.cellOff, ncells+1)
	g.order = growInt32(g.order, n)
	workers := par.MaxWorkers()
	if workers > 1 && n >= parallelBuildMinN && ncells <= parallelBuildMaxCells {
		g.binParallel(ncells, workers)
	} else {
		g.binSerial(ncells)
	}
	return g
}

// growInt32 resizes s to n entries, reallocating only on capacity growth.
// Contents are unspecified; callers overwrite or zero as needed.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// binSerial fills the CSR layout with a two-pass counting sort.
func (g *Grid) binSerial(ncells int) {
	n := len(g.x)
	g.counts = growInt32(g.counts, ncells)
	g.cells = growInt32(g.cells, n)
	counts := g.counts
	cells := g.cells
	for i := range counts {
		counts[i] = 0
	}
	for i := 0; i < n; i++ {
		c := g.cellOf(g.x[i], g.y[i], g.z[i])
		cells[i] = int32(c)
		counts[c]++
	}
	off := int32(0)
	for c := 0; c < ncells; c++ {
		g.cellOff[c] = off
		off += counts[c]
		counts[c] = g.cellOff[c] // becomes the fill cursor
	}
	g.cellOff[ncells] = off
	for i := 0; i < n; i++ {
		c := cells[i]
		g.order[counts[c]] = int32(i)
		counts[c]++
	}
}

// binParallel fills the CSR layout with per-worker cell histograms: each
// worker owns a contiguous particle range, counts its per-cell occupancy,
// and — after a serial scan assigns every (worker, cell) pair its exclusive
// start — scatters its particles without atomics. Within a cell, worker w's
// particles precede worker w+1's and each worker scans ascending, so the
// final order is ascending particle index, identical to binSerial.
func (g *Grid) binParallel(ncells, workers int) {
	n := len(g.x)
	chunk := (n + workers - 1) / workers
	g.hist = growInt32(g.hist, workers*ncells)
	g.cells = growInt32(g.cells, n)
	hist := g.hist
	cells := g.cells
	for i := range hist {
		hist[i] = 0
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			h := hist[w*ncells : (w+1)*ncells]
			for i := lo; i < hi; i++ {
				c := g.cellOf(g.x[i], g.y[i], g.z[i])
				cells[i] = int32(c)
				h[c]++
			}
		}(w, lo, hi)
	}
	wg.Wait()
	off := int32(0)
	for c := 0; c < ncells; c++ {
		g.cellOff[c] = off
		for w := 0; w < workers; w++ {
			t := hist[w*ncells+c]
			hist[w*ncells+c] = off
			off += t
		}
	}
	g.cellOff[ncells] = off
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			h := hist[w*ncells : (w+1)*ncells]
			for i := lo; i < hi; i++ {
				c := cells[i]
				g.order[h[c]] = int32(i)
				h[c]++
			}
		}(w, lo, hi)
	}
	wg.Wait()
}

func gridDim(extent, radius float64) int {
	d := int(extent / radius)
	if d < 1 {
		d = 1
	}
	// Cap grid dimensions to bound memory for tiny radii.
	if d > 512 {
		d = 512
	}
	return d
}

func (g *Grid) cellIndex(cx, cy, cz int) int {
	return (cz*g.ny+cy)*g.nx + cx
}

func (g *Grid) cellOf(x, y, z float64) int {
	cx := clampCell(int((x-g.box.Xmin)/g.cellSize[0]), g.nx)
	cy := clampCell(int((y-g.box.Ymin)/g.cellSize[1]), g.ny)
	cz := clampCell(int((z-g.box.Zmin)/g.cellSize[2]), g.nz)
	return g.cellIndex(cx, cy, cz)
}

func clampCell(c, n int) int {
	if c < 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}

// wrapCell maps a cell coordinate into [0, n) for periodic dimensions;
// returns -1 when out of range on non-periodic dimensions.
func wrapCell(c, n int, periodic bool) int {
	if c >= 0 && c < n {
		return c
	}
	if !periodic {
		return -1
	}
	c %= n
	if c < 0 {
		c += n
	}
	return c
}

// minImage returns the minimum-image displacement d for a periodic dimension
// of length l.
func minImage(d, l float64, periodic bool) float64 {
	if !periodic {
		return d
	}
	if d > l/2 {
		return d - l
	}
	if d < -l/2 {
		return d + l
	}
	return d
}

// MinImage returns the minimum-image displacement d for a (possibly
// periodic) dimension of length l. It is the exact arithmetic the grid's
// Displacement uses, exported so callers refreshing cached pair lists
// reproduce grid-built displacements bit for bit.
func MinImage(d, l float64, periodic bool) float64 {
	return minImage(d, l, periodic)
}

// Displacement returns the minimum-image displacement vector from particle j
// to particle i and its squared norm.
func (g *Grid) Displacement(i, j int) (dx, dy, dz, r2 float64) {
	dx = minImage(g.x[i]-g.x[j], g.box.Lx(), g.box.PBCx)
	dy = minImage(g.y[i]-g.y[j], g.box.Ly(), g.box.PBCy)
	dz = minImage(g.z[i]-g.z[j], g.box.Lz(), g.box.PBCz)
	r2 = dx*dx + dy*dy + dz*dz
	return
}

// axisCell is one cell coordinate of a query's scan window, annotated with
// the squared minimum distance from the query coordinate to the cell's slab
// along that axis (0 for the query's own cell).
type axisCell struct {
	c  int32
	d2 float64
}

// axisBufEntries sizes the stack-allocated scan windows of ForEachNeighbor:
// it covers half-widths up to 16 (and whole axes up to 33 cells) without
// touching the heap; SPH queries use half-width 1.
const axisBufEntries = 33

// ForEachNeighbor invokes fn for every particle j != i within radius of
// particle i, passing the displacement (xi - xj) and distance. The maximum
// useful radius is the one the grid was built for; larger radii miss
// neighbors.
//
// Cells whose nearest point along the scan window already lies beyond the
// radius are skipped wholesale (cell-distance pruning); the surviving cells
// are visited in the same order as the unpruned scan, so iteration order —
// and therefore downstream floating-point summation order — is unchanged.
func (g *Grid) ForEachNeighbor(i int, radius float64, fn func(j int, dx, dy, dz, dist float64)) {
	r2max := radius * radius
	// Slab distances carry a few ulps of rounding; widen the pruning bound
	// so a cell can never be rejected for a pair the unpruned scan admits.
	r2prune := r2max * (1 + 0x1p-40)
	px, py, pz := g.x[i], g.y[i], g.z[i]
	cx := int((px - g.box.Xmin) / g.cellSize[0])
	cy := int((py - g.box.Ymin) / g.cellSize[1])
	cz := int((pz - g.box.Zmin) / g.cellSize[2])
	// Number of cells to scan per direction: radius may span multiple cells
	// when it exceeds the cell size (possible only if caller exceeded
	// maxRadius; we still handle it correctly up to the scan width).
	var xb, yb, zb [axisBufEntries]axisCell
	xs := axisScan(xb[:0], cx, scanWidth(radius, g.cellSize[0]), g.nx, g.box.PBCx, px, g.box.Xmin, g.cellSize[0])
	ys := axisScan(yb[:0], cy, scanWidth(radius, g.cellSize[1]), g.ny, g.box.PBCy, py, g.box.Ymin, g.cellSize[1])
	zs := axisScan(zb[:0], cz, scanWidth(radius, g.cellSize[2]), g.nz, g.box.PBCz, pz, g.box.Zmin, g.cellSize[2])
	// The point loop below is the hottest code in the SPH step (every list
	// build and candidate gather funnels through it), so the box lengths,
	// half-lengths, and coordinate slices are hoisted and the minimum-image
	// fold is inlined — the arithmetic is exactly Displacement's, term for
	// term, keeping admitted pairs and their stored values bit-identical.
	lx, ly, lz := g.box.Lx(), g.box.Ly(), g.box.Lz()
	hx, hy, hz := lx/2, ly/2, lz/2
	pbx, pby, pbz := g.box.PBCx, g.box.PBCy, g.box.PBCz
	gx, gy, gz := g.x, g.y, g.z
	cellOff, order := g.cellOff, g.order
	for _, zc := range zs {
		if zc.d2 > r2prune {
			continue
		}
		for _, yc := range ys {
			dzy := zc.d2 + yc.d2
			if dzy > r2prune {
				continue
			}
			for _, xc := range xs {
				if dzy+xc.d2 > r2prune {
					continue
				}
				c := g.cellIndex(int(xc.c), int(yc.c), int(zc.c))
				for k := cellOff[c]; k < cellOff[c+1]; k++ {
					j := int(order[k])
					if j == i {
						continue
					}
					dx := px - gx[j]
					if pbx {
						if dx > hx {
							dx -= lx
						} else if dx < -hx {
							dx += lx
						}
					}
					dy := py - gy[j]
					if pby {
						if dy > hy {
							dy -= ly
						} else if dy < -hy {
							dy += ly
						}
					}
					dz := pz - gz[j]
					if pbz {
						if dz > hz {
							dz -= lz
						} else if dz < -hz {
							dz += lz
						}
					}
					r2 := dx*dx + dy*dy + dz*dz
					if r2 < r2max {
						fn(j, dx, dy, dz, math.Sqrt(r2))
					}
				}
			}
		}
	}
}

// axisScan returns the distinct cell coordinates to scan along one axis for
// a query at cell c with scan half-width s, each annotated with the squared
// minimum distance from query coordinate p to the cell's slab. Periodic
// wrap-around never visits a cell twice, even when the scan window exceeds
// the grid size. Wrapped offsets keep their unwrapped slab distance, which
// stays a valid minimum-image lower bound because the window is narrower
// than the axis (2s+1 < n); when it is not, the whole axis is scanned
// unpruned. buf supplies the (typically stack-resident) backing storage.
func axisScan(buf []axisCell, c, s, n int, periodic bool, p, min, cell float64) []axisCell {
	if 2*s+1 >= n {
		// Window covers the whole axis: scan every cell once, unpruned.
		if cap(buf) < n {
			buf = make([]axisCell, 0, n)
		}
		for i := 0; i < n; i++ {
			buf = append(buf, axisCell{c: int32(i)})
		}
		return buf
	}
	if cap(buf) < 2*s+1 {
		buf = make([]axisCell, 0, 2*s+1)
	}
	for d := -s; d <= s; d++ {
		w := wrapCell(c+d, n, periodic)
		if w < 0 {
			continue
		}
		var dist float64
		switch {
		case d > 0: // slab above the query: nearest point is its lower edge
			dist = min + float64(c+d)*cell - p
		case d < 0: // slab below the query: nearest point is its upper edge
			dist = p - (min + float64(c+d+1)*cell)
		}
		if dist < 0 {
			dist = 0 // query sits inside or on the edge (rounding)
		}
		buf = append(buf, axisCell{c: int32(w), d2: dist * dist})
	}
	return buf
}

func scanWidth(radius, cell float64) int {
	w := int(math.Ceil(radius / cell))
	if w < 1 {
		w = 1
	}
	return w
}

// Neighbors collects the indices of all neighbors of particle i within
// radius. Intended for tests and diagnostics; hot paths use ForEachNeighbor.
func (g *Grid) Neighbors(i int, radius float64) []int {
	var out []int
	g.ForEachNeighbor(i, radius, func(j int, _, _, _, _ float64) {
		out = append(out, j)
	})
	return out
}

// CountNeighbors returns the number of neighbors of particle i within radius.
func (g *Grid) CountNeighbors(i int, radius float64) int {
	n := 0
	g.ForEachNeighbor(i, radius, func(int, float64, float64, float64, float64) { n++ })
	return n
}
