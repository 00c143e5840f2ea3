// Package neighbors provides fixed-radius neighbor search for SPH using a
// uniform cell grid (cell-linked lists), with optional periodic boundaries.
//
// A query scans the cells within its radius: 3 per axis when the cells are
// as wide as the radius the grid was built for, more on a finer grid. The
// SPH candidate gather (Gather) runs on cells of half the largest radius and
// scans only the half of each 5-per-axis window ahead of the query's own
// cell, pruned to the cells that either end's radius reaches: a pair is
// tested by the endpoint it lies ahead of, once. Queries are safe to run
// concurrently once the grid is built, which the SPH pipeline exploits with
// one worker per core.
package neighbors

import (
	"math"
	"slices"

	"sphenergy/internal/par"
	"sphenergy/internal/sfc"
)

// Grid is a uniform-cell acceleration structure over a particle set. Cell
// contents are stored CSR-style: cellOff[c]..cellOff[c+1] indexes into
// order, which lists particle indices grouped by cell in ascending order.
// The ascending order does not depend on how many chunks bin it, so query
// iteration order — and therefore the floating-point summation order
// of the SPH kernels — is deterministic.
type Grid struct {
	box        sfc.Box
	nx, ny, nz int
	cellSize   [3]float64
	cellOff    []int32 // ncells+1 prefix offsets into order
	order      []int32 // particle indices grouped by cell, ascending within each
	x, y, z    []float64
	// ox, oy, oz copy the coordinates in order's order, ox[k] = x[order[k]],
	// so that Gather streams a run's coordinates instead of loading them
	// through order. The binning writes them beside order.
	ox, oy, oz []float64

	// The gather radii (SetRadii): the reciprocal square of each particle's
	// radius in order's order, beside the coordinates; the largest square in
	// each cell, widened for pruning (pruneSlack); the scan half-width per
	// axis of the largest radius; and whether that window spans a periodic
	// axis, which sends every gather to the callback walk.
	oinv   []float64
	cellR2 []float64
	maxR   float64
	span   [3]int
	walk   bool

	// Binning scratch, kept on the grid so BuildGridInto rebuilds without
	// allocating once the buffers have warmed up to the problem size. cells
	// outlives the binning: it is every query's own cell.
	cells []int32 // per-particle cell index
	hist  []int32 // per-chunk cell histograms, chunk after chunk
}

// parallelBuildMaxCells bounds the histogram memory of the binning (chunks
// × ncells int32 counters); grids finer than this bin in one chunk.
const parallelBuildMaxCells = 1 << 20

// parallelBuildMinN is the particle count below which one chunk bins
// fastest.
const parallelBuildMinN = 1 << 14

// BuildGridInto creates a search grid for particles at (x, y, z) in the
// box, sized for queries up to maxRadius. When g is non-nil its CSR arrays
// and binning scratch are recycled, so steady-state rebuilds (same particle
// count, same resolution) perform no allocations; the resulting layout is
// identical to a fresh grid's. Returns g (or a new grid when g is nil); any
// outstanding queries against the previous contents must have finished.
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
	g.cellOff = grow(g.cellOff, ncells+1)
	g.order = grow(g.order, n)
	g.ox, g.oy, g.oz = grow(g.ox, n), grow(g.oy, n), grow(g.oz, n)
	g.maxR = 0 // the radii, if any, were the last point set's
	g.bin(ncells)
	return g
}

// grow resizes s to n entries, reallocating only on capacity growth.
// Contents are unspecified; callers overwrite or zero as needed.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// place puts particle i at position k of order, with its coordinates.
func (g *Grid) place(k int32, i int) {
	g.order[k] = int32(i)
	g.ox[k], g.oy[k], g.oz[k] = g.x[i], g.y[i], g.z[i]
}

// bin fills the CSR layout with a counting sort over per-chunk cell
// histograms: each of par's contiguous particle ranges counts its per-cell
// occupancy, a serial scan assigns every (chunk, cell) pair its exclusive
// start, and each range then places its particles without atomics. Within
// a cell chunk c's particles precede chunk c+1's and each chunk scans
// ascending, so the order is ascending particle index however many chunks
// there are. Below parallelBuildMinN, and on grids finer than
// parallelBuildMaxCells, the whole set is one chunk.
func (g *Grid) bin(ncells int) {
	n := len(g.x)
	chunks := par.Chunks(n)
	if n < parallelBuildMinN || ncells > parallelBuildMaxCells {
		chunks = 1
	}
	g.hist = grow(g.hist, chunks*ncells)
	g.cells = grow(g.cells, n)
	clear(g.hist)
	g.eachBin(chunks, ncells, (*Grid).count)
	hist := g.hist
	off := int32(0)
	for c := 0; c < ncells; c++ {
		g.cellOff[c] = off
		for k := c; k < len(hist); k += ncells {
			t := hist[k]
			hist[k] = off // becomes chunk k/ncells's fill cursor
			off += t
		}
	}
	g.cellOff[ncells] = off
	g.eachBin(chunks, ncells, (*Grid).fill)
}

// eachBin runs pass over each chunk's particle range with that chunk's
// histogram: par.Chunked's ranges, or [0, n) inline for one chunk.
func (g *Grid) eachBin(chunks, ncells int, pass func(g *Grid, h []int32, lo, hi int)) {
	if chunks == 1 {
		pass(g, g.hist, 0, len(g.x))
		return
	}
	par.Chunked(len(g.x), func(c, lo, hi int) {
		pass(g, g.hist[c*ncells:(c+1)*ncells], lo, hi)
	})
}

// count bins particles [lo, hi) and counts them into the histogram h.
func (g *Grid) count(h []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		c := g.cellOf(g.x[i], g.y[i], g.z[i])
		g.cells[i] = int32(c)
		h[c]++
	}
}

// fill places particles [lo, hi) at the cursors h holds per cell.
func (g *Grid) fill(h []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		c := g.cells[i]
		g.place(h[c], i)
		h[c]++
	}
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

// cellCoords is the inverse of cellIndex.
func (g *Grid) cellCoords(c int) (cx, cy, cz int) {
	return c % g.nx, c / g.nx % g.ny, c / (g.nx * g.ny)
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
// must test and hands them to fn as contiguous runs of order, given as the
// offsets [lo, hi) into it (and into the coordinate copies), each with the
// periodic image per axis its window reaches it in (see axisCell). The scan
// goes z, then y, then x as axisScan lists each window; cells whose nearest
// point already lies beyond the radius are skipped wholesale, and since
// cell indices are x-fastest, the x-adjacent cells that remain in one
// (z, y) cell row are one run (two where a periodic window wraps). Within a
// cell order ascends, so the iteration order of every query — and with it
// downstream floating-point summation order — is a function of the grid
// and the radius alone. The window is centred on the cell i was binned in.
func (g *Grid) eachRun(i int, radius float64, fn func(lo, hi int32, ix, iy, iz int32)) {
	r2prune := radius * radius * pruneSlack
	px, py, pz := g.x[i], g.y[i], g.z[i]
	cx, cy, cz := g.cellCoords(int(g.cells[i]))
	var xb, yb, zb [axisBufEntries]axisCell
	xs, _ := axisScan(xb[:0], cx, scanWidth(radius, g.cellSize[0]), g.nx, g.box.PBCx, px, g.box.Xmin, g.cellSize[0])
	ys, _ := axisScan(yb[:0], cy, scanWidth(radius, g.cellSize[1]), g.ny, g.box.PBCy, py, g.box.Ymin, g.cellSize[1])
	zs, _ := axisScan(zb[:0], cz, scanWidth(radius, g.cellSize[2]), g.nz, g.box.PBCz, pz, g.box.Zmin, g.cellSize[2])
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
				fn(g.cellOff[row+int(xs[lo].c)], g.cellOff[row+int(xs[end-1].c)+1], xs[lo].image, yc.image, zc.image)
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
	g.eachRun(i, radius, func(lo, hi int32, _, _, _ int32) {
		for _, j32 := range g.order[lo:hi] {
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
// The cells come in ascending offset from c, and self is the position of c
// itself among them: those after it are the ones ahead of the query.
func axisScan(buf []axisCell, c, s, n int, periodic bool, p, min, cell float64) (cells []axisCell, self int) {
	if 2*s+1 >= n {
		// Window covers the whole axis: scan every cell once, unpruned.
		if cap(buf) < n {
			buf = make([]axisCell, 0, n)
		}
		for i := 0; i < n; i++ {
			buf = append(buf, axisCell{c: int32(i)})
		}
		return buf, c
	}
	if cap(buf) < 2*s+1 {
		buf = make([]axisCell, 0, 2*s+1)
	}
	for d := -s; d <= s; d++ {
		w := wrapCell(c+d, n, periodic)
		if w < 0 {
			continue
		}
		if d == 0 {
			self = len(buf)
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
	return buf, self
}

// pruneSlack widens every pruning bound: slab distances carry a few ulps of
// rounding, and a cell must never be rejected for a pair the unpruned scan
// admits.
const pruneSlack = 1 + 0x1p-40

// SetRadii gives the grid's particles their gather radii, r[i] > 0 for
// particle i, which Gather reads until the next SetRadii or rebuild: the
// reciprocal squares are copied into the grid's particle order, each cell
// notes the largest radius in it, and the one scan window every gather uses
// is sized for the largest radius of all, as is the choice between runs
// and the callback walk.
func (g *Grid) SetRadii(r []float64) {
	if len(r) != len(g.order) {
		panic("neighbors: one radius per particle")
	}
	ncells := len(g.cellOff) - 1
	g.oinv = grow(g.oinv, len(g.order))
	g.cellR2 = grow(g.cellR2, ncells)
	g.maxR = 0
	for c := 0; c < ncells; c++ {
		most := 0.0
		for k := g.cellOff[c]; k < g.cellOff[c+1]; k++ {
			rj := r[g.order[k]]
			g.oinv[k] = 1 / (rj * rj)
			most = max(most, rj)
		}
		g.cellR2[c] = most * most * pruneSlack
		g.maxR = max(g.maxR, most)
	}
	// A window as wide as a periodic axis lists the axis's cells once,
	// images unknown, and cannot tell ahead from behind.
	g.walk = false
	periodic := [3]bool{g.box.PBCx, g.box.PBCy, g.box.PBCz}
	for a, n := range [3]int{g.nx, g.ny, g.nz} {
		g.span[a] = scanWidth(g.maxR, g.cellSize[a])
		g.walk = g.walk || periodic[a] && 2*g.span[a]+1 >= n
	}
}

// Candidates is what Grid.Gather fills: the indices found so far and their
// keys (two slices of one length), query after query, and exact counts of
// the work its runs took.
type Candidates struct {
	Idx   []int32
	Key   []float64 // Key[k] is r²/max(R_i, R_j)² of Idx[k] = j and its query i, below 1
	Tests int       // distance tests
	Runs  int       // contiguous runs of the grid's particle order walked
}

// Gather appends to c.Idx, with its key to c.Key, every particle j that
// particle i owns and that lies within the larger of the two's radii
// (SetRadii): u = r²·min(1/R_i², 1/R_j²) < 1, r the minimum-image distance
// and u the key. Particle i owns what lies ahead of it in the scan window
// of the largest radius: the particles after it in its own cell (order
// ascends there, so they are a suffix of the cell's run), and those of the
// cells after its own in the window's (z, y, x) offset order. Of two cells,
// each in the other's window, exactly one is ahead of the other, so over all
// i every unordered pair within the larger of its radii is found, and
// tested, exactly once — the half of a symmetric candidate list that needs
// no reverse lookup. A cell is skipped when its slab lies beyond both R_i
// and the largest radius in it.
//
// Gather is made for grids finer than the radius, where a run spans several
// cells: the run knows its periodic image from the window instead of
// folding every displacement, and inside it index and key are written
// unconditionally and kept by advancing the cursor — no callback per
// particle, no append, no square root. On a grid whose window spans a
// periodic axis every query walks the whole window instead and owns the
// pairs j > i.
func (g *Grid) Gather(c *Candidates, i int) {
	if g.maxR == 0 {
		panic("neighbors: Gather before SetRadii")
	}
	at := g.slot(i)
	if g.walk {
		g.gatherWalk(c, i, at)
		return
	}
	q := gatherQuery{px: g.x[i], py: g.y[i], pz: g.z[i], inv: g.oinv[at]}
	r2i := pruneSlack / q.inv // R_i², widened like cellR2
	cx, cy, cz := g.cellCoords(int(g.cells[i]))
	var xb, yb, zb [axisBufEntries]axisCell
	xs, x0 := axisScan(xb[:0], cx, g.span[0], g.nx, g.box.PBCx, q.px, g.box.Xmin, g.cellSize[0])
	ys, y0 := axisScan(yb[:0], cy, g.span[1], g.ny, g.box.PBCy, q.py, g.box.Ymin, g.cellSize[1])
	zs, z0 := axisScan(zb[:0], cz, g.span[2], g.nz, g.box.PBCz, q.pz, g.box.Zmin, g.cellSize[2])
	lx, ly, lz := g.box.Lx(), g.box.Ly(), g.box.Lz()
	// Ahead of i: the z layers from its own on; in its own layer the rows
	// from its own on; in its own row the cells from its own on, whose run
	// starts after i.
	ownRow, yfrom := true, y0
	for _, zc := range zs[z0:] {
		for _, yc := range ys[yfrom:] {
			dzy := zc.d2 + yc.d2
			row := g.cellIndex(0, int(yc.c), int(zc.c))
			lo, hi := 0, len(xs)
			if ownRow {
				lo = x0
			}
			// Slab distance grows away from the query's cell: trim the row's
			// ends to the cells some radius reaches (the own cell, at distance
			// 0, always stays).
			for lo < hi && dzy+xs[lo].d2 > max(r2i, g.cellR2[row+int(xs[lo].c)]) {
				lo++
			}
			for lo < hi && dzy+xs[hi-1].d2 > max(r2i, g.cellR2[row+int(xs[hi-1].c)]) {
				hi--
			}
			q.sy, q.sz = -float64(yc.image)*ly, -float64(zc.image)*lz
			for lo < hi {
				end := lo + 1
				for end < hi && xs[end].c == xs[end-1].c+1 {
					end++
				}
				from, to := g.cellOff[row+int(xs[lo].c)], g.cellOff[row+int(xs[end-1].c)+1]
				if ownRow {
					from, ownRow = at+1, false
				}
				if m := int(to - from); m > 0 {
					q.sx = -float64(xs[lo].image) * lx
					c.Runs++
					c.Tests += m
					c.Idx, c.Key = q.keep(slices.Grow(c.Idx, m), slices.Grow(c.Key, m), g.order[from:to], g.ox[from:to], g.oy[from:to], g.oz[from:to], g.oinv[from:to])
				}
				lo = end
			}
		}
		yfrom = 0
	}
}

// slot is particle i's position in order: in the run of the cell it was
// binned in, which ascends.
func (g *Grid) slot(i int) int32 {
	k := g.cellOff[g.cells[i]]
	for g.order[k] != int32(i) {
		k++
	}
	return k
}

// gatherWalk is Gather on a grid whose window spans a periodic axis: every
// particle j > i of the window of the largest radius, its displacement
// folded, at ForEachNeighbor's pace. at is i's slot.
func (g *Grid) gatherWalk(c *Candidates, i int, at int32) {
	px, py, pz, inv := g.x[i], g.y[i], g.z[i], g.oinv[at]
	lx, ly, lz := g.box.Lx(), g.box.Ly(), g.box.Lz()
	hx, hy, hz := HalfFold(lx, g.box.PBCx), HalfFold(ly, g.box.PBCy), HalfFold(lz, g.box.PBCz)
	g.eachRun(i, g.maxR, func(lo, hi int32, _, _, _ int32) {
		for k := lo; k < hi; k++ {
			if int(g.order[k]) <= i {
				continue
			}
			dx, dy, dz := Fold(px-g.ox[k], hx, lx), Fold(py-g.oy[k], hy, ly), Fold(pz-g.oz[k], hz, lz)
			if u := (dx*dx + dy*dy + dz*dz) * min(inv, g.oinv[k]); u < 1 {
				c.Idx, c.Key = append(c.Idx, g.order[k]), append(c.Key, u)
			}
		}
	})
}

// gatherQuery is what Gather's distance test reads, kept apart from the
// cell walk so that the loop over a run holds it in registers.
type gatherQuery struct {
	px, py, pz float64
	sx, sy, sz float64 // the run's image: 0 or ∓ a box length per axis
	inv        float64 // 1/R_i²
}

// keep appends to idx the members of run within the larger of the query's
// radius and their own and to key their keys; both have room for all of run.
// x, y, z and inv are the run's coordinates and reciprocal squared radii, in
// its order. Shifting the query into the run's image stands for the
// minimum-image fold of ForEachNeighbor, to rounding, on every pair kept.
func (q *gatherQuery) keep(idx []int32, key []float64, run []int32, x, y, z, inv []float64) ([]int32, []float64) {
	ax, ay, az, invI := q.px+q.sx, q.py+q.sy, q.pz+q.sz, q.inv
	w := len(idx)
	idx, key = idx[:w+len(run)], key[:w+len(run)]
	x, y, z, inv = x[:len(run)], y[:len(run)], z[:len(run)], inv[:len(run)]
	for k, j := range run {
		dx, dy, dz := ax-x[k], ay-y[k], az-z[k]
		u := (dx*dx + dy*dy + dz*dz) * min(invI, inv[k])
		idx[w], key[w] = j, u
		in := 0
		if u < 1 {
			in = 1
		}
		w += in
	}
	return idx[:w], key[:w]
}

func scanWidth(radius, cell float64) int {
	w := int(math.Ceil(radius / cell))
	if w < 1 {
		w = 1
	}
	return w
}

// CountNeighbors returns the number of neighbors of particle i within radius.
func (g *Grid) CountNeighbors(i int, radius float64) int {
	n := 0
	g.ForEachNeighbor(i, radius, func(int, float64, float64, float64, float64) { n++ })
	return n
}
