package neighbors

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"sphenergy/internal/rng"
	"sphenergy/internal/sfc"
)

// gatherAll gives every particle its radius and runs Gather for each, and
// returns the concatenated output with the per-particle ends.
func gatherAll(g *Grid, radius []float64) (Candidates, []int) {
	var c Candidates
	ends := make([]int, len(radius))
	g.SetRadii(radius)
	for i := range radius {
		g.Gather(&c, i)
		ends[i] = len(c.Idx)
	}
	return c, ends
}

// pair is an unordered pair of particle indices, lower first.
type pair struct{ lo, hi int32 }

func pairOf(i, j int32) pair { return pair{min(i, j), max(i, j)} }

// brutePairs is the O(n²) reference of Gather: every unordered pair within
// the larger of its two radii by the minimum-image distance, with its key
// r²/max(R_i, R_j)², in Gather's arithmetic.
func brutePairs(box sfc.Box, x, y, z, radius []float64) map[pair]float64 {
	out := map[pair]float64{}
	for i := range x {
		for j := i + 1; j < len(x); j++ {
			u := dist2(box, x, y, z, i, j) * min(1/(radius[i]*radius[i]), 1/(radius[j]*radius[j]))
			if u < 1 {
				out[pair{int32(i), int32(j)}] = u
			}
		}
	}
	return out
}

// requireExactlyOnce holds a whole gather to the brute-force reference:
// every pair of it found exactly once over all queries, none other, each
// with the reference's key to rounding (a run shifts the query into its
// image where the reference folds).
func requireExactlyOnce(t *testing.T, c Candidates, ends []int, want map[pair]float64) {
	t.Helper()
	if len(c.Key) != len(c.Idx) {
		t.Fatalf("%d keys for %d indices", len(c.Key), len(c.Idx))
	}
	seen := map[pair]bool{}
	lo := 0
	for i, hi := range ends {
		for k := lo; k < hi; k++ {
			j := c.Idx[k]
			key := pairOf(int32(i), j)
			u, ok := want[key]
			switch {
			case j == int32(i):
				t.Fatalf("particle %d gathered itself", i)
			case seen[key]:
				t.Fatalf("pair {%d,%d} gathered twice", key.lo, key.hi)
			case !ok:
				t.Fatalf("particle %d gathered %d, which lies beyond both radii", i, j)
			case math.Abs(c.Key[k]-u) > 1e-12:
				t.Fatalf("pair {%d,%d}: key %.17g, the reference has %.17g", key.lo, key.hi, c.Key[k], u)
			}
			seen[key] = true
		}
		lo = hi
	}
	if len(seen) != len(want) {
		t.Fatalf("%d pairs gathered, %d unordered pairs lie within the larger of their radii", len(seen), len(want))
	}
}

// windowPairs counts the unordered pairs of particles whose cells lie within
// each other's scan window of the largest radius: what a gather that tests
// each pair at most once can test at most.
func windowPairs(g *Grid) int {
	near := func(ci, cj, s, n int, periodic bool) bool {
		if 2*s+1 >= n {
			return true
		}
		d := cj - ci
		if periodic {
			d = ((d%n)+n+n/2)%n - n/2
		}
		return d >= -s && d <= s
	}
	count := 0
	for i := range g.x {
		xi, yi, zi := g.cellCoords(int(g.cells[i]))
		for j := i + 1; j < len(g.x); j++ {
			xj, yj, zj := g.cellCoords(int(g.cells[j]))
			if near(xi, xj, g.span[0], g.nx, g.box.PBCx) && near(yi, yj, g.span[1], g.ny, g.box.PBCy) && near(zi, zj, g.span[2], g.nz, g.box.PBCz) {
				count++
			}
		}
	}
	return count
}

// onFaces moves about a third of the coordinates onto cell faces of a grid
// built for radius cell: interior faces, the lower box face, and the upper
// one — Xmax itself on an open axis, the last value below it on a periodic
// one, which can round to the cell past the last.
func onFaces(box sfc.Box, cell float64, x, y, z []float64) {
	r := rng.New(3)
	for a, v := range [][]float64{x, y, z} {
		lo, hi := [3]float64{box.Xmin, box.Ymin, box.Zmin}[a], [3]float64{box.Xmax, box.Ymax, box.Zmax}[a]
		n := gridDim(hi-lo, cell)
		top := hi
		if [3]bool{box.PBCx, box.PBCy, box.PBCz}[a] {
			top = math.Nextafter(hi, lo)
		}
		for i := range v {
			switch k := int(r.Float64() * 6); k {
			case 0:
				v[i] = top
			case 1, 2:
				v[i] = lo + float64(int(r.Float64()*float64(n)))*((hi-lo)/float64(n))
			}
		}
	}
}

// TestGatherMatchesForEachNeighbor holds Gather to a brute-force O(n²)
// reference at per-particle random radii: every unordered pair within the
// larger of its two radii found exactly once over all queries, with its
// key, and no pair tested twice. It runs on periodic, open and mixed boxes,
// with the grid's cells finer than the radius (the candidate gather's case:
// several cells per run), matched to it, and so coarse that the box is two
// cells wide and every axis window covers the whole axis — on a periodic
// axis, the callback walk; with radii spread tenfold, as in a collapsing
// sphere; with coincident points; and with points on cell faces and at the
// upper box faces, where the query's cell must be the one it was binned in.
func TestGatherMatchesForEachNeighbor(t *testing.T) {
	for _, tc := range []struct {
		name          string
		pbx, pby, pbz bool
		cell          float64 // the grid is built for this radius
		rmin, rmax    float64 // queries draw theirs from this range
		walk          bool    // a window spans a periodic axis: no runs
		ly            float64 // the box's y extent
		points        string  // "faces" or "coincident": how the random points are bent
	}{
		{"periodic, radius 2-3 cells", true, true, true, 0.05, 0.1, 0.15, false, 1, ""},
		{"periodic, radius within the cell", true, true, true, 0.1, 0.02, 0.1, false, 1, ""},
		{"open, radius 2-3 cells", false, false, false, 0.05, 0.1, 0.15, false, 1, ""},
		{"mixed, radius 1-2 cells", true, false, true, 0.08, 0.08, 0.16, false, 1, ""},
		{"periodic, box two cells wide", true, true, true, 0.45, 0.1, 0.45, true, 1, ""},
		{"open, box two cells wide", false, false, false, 0.45, 0.1, 0.45, false, 1, ""},
		{"mixed, only the open axis spanned", true, false, true, 0.1, 0.1, 0.15, false, 0.25, ""},
		{"periodic, window wider than the axis", true, true, true, 0.2, 0.3, 0.49, true, 1, ""},
		{"periodic, radii spread tenfold", true, true, true, 0.075, 0.015, 0.15, false, 1, ""},
		{"open, radii spread tenfold", false, false, false, 0.075, 0.015, 0.15, false, 1, ""},
		{"periodic walk, radii spread tenfold", true, true, true, 0.3, 0.045, 0.45, true, 1, ""},
		{"periodic, coincident points", true, true, true, 0.05, 0.1, 0.15, false, 1, "coincident"},
		{"periodic, points on cell faces", true, true, true, 0.05, 0.1, 0.15, false, 1, "faces"},
		{"open, points on cell faces", false, false, false, 0.05, 0.1, 0.15, false, 1, "faces"},
		{"mixed, points on cell faces", true, false, true, 0.08, 0.08, 0.16, false, 1, "faces"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			box := sfc.NewCube(-0.5, 0.5)
			box.PBCx, box.PBCy, box.PBCz = tc.pbx, tc.pby, tc.pbz
			box.Ymax = box.Ymin + tc.ly
			const n = 3000
			x, y, z := randomPoints(box, n, 17)
			switch tc.points {
			case "coincident":
				for i := 5; i < n; i += 5 {
					x[i], y[i], z[i] = x[i-3], y[i-3], z[i-3]
				}
			case "faces":
				onFaces(box, tc.cell, x, y, z)
			}
			r := rng.New(5)
			radius := make([]float64, n)
			for i := range radius {
				radius[i] = tc.rmin + (tc.rmax-tc.rmin)*r.Float64()
				if i%4 == 0 {
					radius[i] = (tc.rmin + tc.rmax) / 2
				}
			}
			g := BuildGrid(box, x, y, z, tc.cell)
			if tc.points == "faces" {
				// Not degenerate: some upper-face point divides into the cell
				// past the last, which is not where it was binned.
				past := 0
				for i := range x {
					if int((x[i]-box.Xmin)/g.cellSize[0]) >= g.nx {
						past++
					}
				}
				if past == 0 {
					t.Fatal("no point rounds past the last cell; the face case tests nothing")
				}
			}
			c, ends := gatherAll(g, radius)
			requireExactlyOnce(t, c, ends, brutePairs(box, x, y, z, radius))
			if tc.walk != (c.Runs == 0) || !tc.walk && c.Tests < len(c.Idx) {
				t.Fatalf("%d tests and %d runs for %d results (callback walk expected: %v)", c.Tests, c.Runs, len(c.Idx), tc.walk)
			}
			if most := windowPairs(g); c.Tests > most {
				t.Fatalf("%d distance tests, but only %d pairs lie within each other's window: some pair was tested twice", c.Tests, most)
			}
			// The run is the loop unit: at most two per (z, y) cell row of
			// the scan window (two where a periodic window wraps), however
			// many x cells the row holds.
			side := 2*scanWidth(tc.rmax, g.cellSize[0]) + 1
			if rows := min(side, g.ny) * min(side, g.nz); c.Runs > 2*n*rows {
				t.Errorf("%d runs for %d queries of at most %d cell rows each", c.Runs, n, rows)
			}
		})
	}
}

// TestGatherIndependentOfWorkerCount: the grid bins in several chunks past
// parallelBuildMinN, and what Gather then reads must not depend on how many
// chunks binned it.
func TestGatherIndependentOfWorkerCount(t *testing.T) {
	box := sfc.NewPeriodicCube(0, 1)
	const n = 20000
	x, y, z := randomPoints(box, n, 23)
	radius := make([]float64, n)
	for i := range radius {
		radius[i] = 0.05 + 0.03*float64(i%7)/7
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want, wantEnds := gatherAll(BuildGrid(box, x, y, z, 0.04), radius)
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		got, ends := gatherAll(BuildGrid(box, x, y, z, 0.04), radius)
		if !slices.Equal(got.Idx, want.Idx) || !slices.Equal(got.Key, want.Key) || !slices.Equal(ends, wantEnds) || got.Tests != want.Tests || got.Runs != want.Runs {
			t.Fatalf("GOMAXPROCS %d: gather differs from the serial build's (%d/%d results, %d/%d tests, %d/%d runs)",
				procs, len(got.Idx), len(want.Idx), got.Tests, want.Tests, got.Runs, want.Runs)
		}
	}
}

// TestGatherZeroSteadyStateAllocs: once c.Idx has grown to the problem, a
// whole sweep of queries allocates nothing, nor does giving the grid its
// radii again.
func TestGatherZeroSteadyStateAllocs(t *testing.T) {
	box := sfc.NewPeriodicCube(0, 1)
	const n = 8000
	x, y, z := randomPoints(box, n, 13)
	g := BuildGrid(box, x, y, z, 0.04)
	radius := make([]float64, n)
	for i := range radius {
		radius[i] = 0.07 + 0.01*float64(i%3)
	}
	var c Candidates
	sweep := func() {
		g.SetRadii(radius)
		c.Idx, c.Key = c.Idx[:0], c.Key[:0]
		for i := 0; i < n; i += 16 {
			g.Gather(&c, i)
		}
	}
	sweep()
	if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 {
		t.Errorf("warm Gather sweep allocates %.1f objects/run, want 0", allocs)
	}
	if len(c.Idx) == 0 {
		t.Error("queries found no neighbors; test inputs are degenerate")
	}
}

// dist2 is the squared minimum-image distance between particles i and j.
func dist2(box sfc.Box, x, y, z []float64, i, j int) float64 {
	dx := MinImage(x[i]-x[j], box.Lx(), box.PBCx)
	dy := MinImage(y[i]-y[j], box.Ly(), box.PBCy)
	dz := MinImage(z[i]-z[j], box.Lz(), box.PBCz)
	return dx*dx + dy*dy + dz*dz
}
