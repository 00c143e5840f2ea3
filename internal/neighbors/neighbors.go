// Package neighbors provides fixed-radius neighbor search for SPH using a
// uniform cell grid (cell-linked lists), with optional periodic boundaries.
//
// The grid resolution adapts to the search radius so that each query scans
// at most 27 cells. Queries are safe to run concurrently once the grid is
// built, which the SPH pipeline exploits with one worker per core.
package neighbors

import (
	"math"
	"slices"
	"sync"

	"sphenergy/internal/par"
	"sphenergy/internal/sfc"
)

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

// Fold returns the minimum-image displacement for a displacement d along an
// axis of length l that folds beyond half (see HalfFold). It is the exact
// arithmetic of every displacement the grid computes, exported so callers
// refreshing cached pair lists reproduce them bit for bit.
func Fold(d, half, l float64) float64 {
	if d > half {
		return d - l
	}
	if d < -half {
		return d + l
	}
	return d
}

// HalfFold returns the displacement beyond which an axis of length l folds:
// half the length if it is periodic, never (+Inf) if it is open.
func HalfFold(l float64, periodic bool) float64 {
	if periodic {
		return l / 2
	}
	return math.Inf(1)
}

// MinImage returns the minimum-image displacement d for a (possibly
// periodic) dimension of length l.
func MinImage(d, l float64, periodic bool) float64 {
	return Fold(d, HalfFold(l, periodic), l)
}

// Displacement returns the minimum-image displacement vector from particle j
// to particle i and its squared norm.
func (g *Grid) Displacement(i, j int) (dx, dy, dz, r2 float64) {
	dx = MinImage(g.x[i]-g.x[j], g.box.Lx(), g.box.PBCx)
	dy = MinImage(g.y[i]-g.y[j], g.box.Ly(), g.box.PBCy)
	dz = MinImage(g.z[i]-g.z[j], g.box.Lz(), g.box.PBCz)
	r2 = dx*dx + dy*dy + dz*dz
	return
}

// axisCell is one cell coordinate of a query's scan window, annotated with
// the squared minimum distance from the query coordinate to the cell's slab
// along that axis (0 for the query's own cell) and, in a window narrower
// than a periodic axis, with the image the window reaches the cell in: its
// particles stand image box lengths from their coordinates.
type axisCell struct {
	c, image int32
	d2       float64
}

// axisBufEntries sizes the stack-allocated scan windows of eachRun: it
// covers half-widths up to 16 (and whole axes up to 33 cells) without
// touching the heap; SPH queries use half-widths 1 and 2.
const axisBufEntries = 33

// eachRun walks the cells a query of the given radius around particle i
// must test and hands them to fn as contiguous runs of order, each with the
// periodic image per axis its window reaches it in (see axisCell). The scan
// goes z, then y, then x as axisScan lists each window; cells whose nearest
// point already lies beyond the radius are skipped wholesale, and since
// cell indices are x-fastest, the x-adjacent cells that remain in one
// (z, y) cell row are one run (two where a periodic window wraps). Within a
// cell order ascends, so the iteration order of every query — and with it
// downstream floating-point summation order — is a function of the grid
// and the radius alone.
func (g *Grid) eachRun(i int, radius float64, fn func(run []int32, ix, iy, iz int32)) {
	// Slab distances carry a few ulps of rounding; widen the pruning bound
	// so a cell can never be rejected for a pair the unpruned scan admits.
	r2prune := radius * radius * (1 + 0x1p-40)
	px, py, pz := g.x[i], g.y[i], g.z[i]
	cx := int((px - g.box.Xmin) / g.cellSize[0])
	cy := int((py - g.box.Ymin) / g.cellSize[1])
	cz := int((pz - g.box.Zmin) / g.cellSize[2])
	var xb, yb, zb [axisBufEntries]axisCell
	xs := axisScan(xb[:0], cx, scanWidth(radius, g.cellSize[0]), g.nx, g.box.PBCx, px, g.box.Xmin, g.cellSize[0])
	ys := axisScan(yb[:0], cy, scanWidth(radius, g.cellSize[1]), g.ny, g.box.PBCy, py, g.box.Ymin, g.cellSize[1])
	zs := axisScan(zb[:0], cz, scanWidth(radius, g.cellSize[2]), g.nz, g.box.PBCz, pz, g.box.Zmin, g.cellSize[2])
	for _, zc := range zs {
		for _, yc := range ys {
			dzy := zc.d2 + yc.d2
			// Slab distance grows away from the query's cell, so the x
			// cells within reach are one window of xs.
			lo, hi := 0, len(xs)
			for lo < hi && dzy+xs[lo].d2 > r2prune {
				lo++
			}
			for lo < hi && dzy+xs[hi-1].d2 > r2prune {
				hi--
			}
			row := g.cellIndex(0, int(yc.c), int(zc.c))
			for lo < hi {
				end := lo + 1
				for end < hi && xs[end].c == xs[end-1].c+1 {
					end++
				}
				fn(g.order[g.cellOff[row+int(xs[lo].c)]:g.cellOff[row+int(xs[end-1].c)+1]], xs[lo].image, yc.image, zc.image)
				lo = end
			}
		}
	}
}

// ForEachNeighbor invokes fn for every particle j != i within radius of
// particle i, passing the displacement (xi - xj) and distance, in eachRun's
// order. The maximum useful radius is the one the grid was built for;
// larger radii miss neighbors.
func (g *Grid) ForEachNeighbor(i int, radius float64, fn func(j int, dx, dy, dz, dist float64)) {
	r2max := radius * radius
	px, py, pz := g.x[i], g.y[i], g.z[i]
	lx, ly, lz := g.box.Lx(), g.box.Ly(), g.box.Lz()
	hx, hy, hz := HalfFold(lx, g.box.PBCx), HalfFold(ly, g.box.PBCy), HalfFold(lz, g.box.PBCz)
	gx, gy, gz := g.x, g.y, g.z
	g.eachRun(i, radius, func(run []int32, _, _, _ int32) {
		for _, j32 := range run {
			j := int(j32)
			if j == i {
				continue
			}
			dx, dy, dz := Fold(px-gx[j], hx, lx), Fold(py-gy[j], hy, ly), Fold(pz-gz[j], hz, lz)
			r2 := dx*dx + dy*dy + dz*dz
			if r2 < r2max {
				fn(j, dx, dy, dz, math.Sqrt(r2))
			}
		}
	})
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
		buf = append(buf, axisCell{c: int32(w), image: int32((c + d - w) / n), d2: dist * dist})
	}
	return buf
}

// Candidates is what Grid.Gather fills: the indices found so far and their
// squared distances (two slices of one length), query after query, and exact
// counts of the work its runs took.
type Candidates struct {
	Idx   []int32
	R2    []float64 // R2[k] is the squared distance of Idx[k] from its query
	Tests int       // distance tests
	Runs  int       // contiguous runs of the grid's particle order walked
}

// Gather appends to c.Idx, with its squared distance to c.R2, every particle
// j within radius of particle i that ranks below i — rank[j] < rank[i], ties
// to the higher index — by ForEachNeighbor's minimum-image r² test and in
// its order. Over all i, with a radius that does not decrease with rank,
// every unordered pair within the larger of its two radii is found exactly
// once, by the endpoint of the larger radius: the half of a symmetric
// candidate list that needs no reverse lookup. Gather is made for grids finer
// than the radius, where a run spans several cells: the run knows its
// periodic image from the window instead of folding every displacement, and
// inside it index and r² are written unconditionally and kept by advancing
// the cursor — no callback per particle, no append, no square root.
func (g *Grid) Gather(c *Candidates, i int, radius float64, rank []float64) {
	from := len(c.Idx)
	sx, sy, sz := scanWidth(radius, g.cellSize[0]), scanWidth(radius, g.cellSize[1]), scanWidth(radius, g.cellSize[2])
	if g.box.PBCx && 2*sx+1 >= g.nx || g.box.PBCy && 2*sy+1 >= g.ny || g.box.PBCz && 2*sz+1 >= g.nz {
		// A window as wide as a periodic axis lists the axis's cells once,
		// images unknown: boxes that few cells wide take the callback walk.
		g.ForEachNeighbor(i, radius, func(j int, dx, dy, dz, _ float64) {
			c.Idx = append(c.Idx, int32(j))
			c.R2 = append(c.R2, dx*dx+dy*dy+dz*dz)
		})
	} else {
		q := gatherQuery{x: g.x, y: g.y, z: g.z, px: g.x[i], py: g.y[i], pz: g.z[i], r2max: radius * radius}
		lx, ly, lz := g.box.Lx(), g.box.Ly(), g.box.Lz()
		g.eachRun(i, radius, func(run []int32, ix, iy, iz int32) {
			q.sx, q.sy, q.sz = -float64(ix)*lx, -float64(iy)*ly, -float64(iz)*lz
			c.Runs++
			c.Tests += len(run)
			c.Idx, c.R2 = q.keep(slices.Grow(c.Idx, len(run)), slices.Grow(c.R2, len(run)), run)
		})
	}
	// The rank test reads one more array at j, so it runs over the third of
	// the tested particles that passed the distance test, not over all.
	idx, r2, ri, w := c.Idx, c.R2, rank[i], from
	for k := from; k < len(idx); k++ {
		j := idx[k]
		idx[w], r2[w] = j, r2[k]
		// Three flags and no branch: between near-equal ranks the outcome
		// is a coin toss.
		below, level, later := 0, 0, 0
		rj := rank[j]
		if rj < ri {
			below = 1
		}
		if rj == ri {
			level = 1
		}
		if int(j) > i {
			later = 1
		}
		w += below | level&later
	}
	c.Idx, c.R2 = idx[:w], r2[:w]
}

// gatherQuery is what Gather's distance test reads, kept apart from the
// cell walk so that the loop over a run holds it in registers.
type gatherQuery struct {
	x, y, z    []float64
	px, py, pz float64
	sx, sy, sz float64 // the run's image: 0 or ∓ a box length per axis
	r2max      float64
}

// keep appends to idx the members of run within the query radius and to r2
// their squared distances; both have room for all of run. The query particle
// itself stays in (the rank test drops it). Adding the image's box length is
// the minimum-image fold of ForEachNeighbor, term for term, on every pair
// either keeps.
func (q *gatherQuery) keep(idx []int32, r2 []float64, run []int32) ([]int32, []float64) {
	x, y, z, r2max := q.x, q.y, q.z, q.r2max
	px, py, pz, sx, sy, sz := q.px, q.py, q.pz, q.sx, q.sy, q.sz
	w := len(idx)
	idx, r2 = idx[:w+len(run)], r2[:w+len(run)]
	for _, j := range run {
		dx, dy, dz := px-x[j]+sx, py-y[j]+sy, pz-z[j]+sz
		v := dx*dx + dy*dy + dz*dz
		idx[w], r2[w] = j, v
		in := 0
		if v < r2max {
			in = 1
		}
		w += in
	}
	return idx[:w], r2[:w]
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
