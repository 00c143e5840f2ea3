package neighbors

import (
	"runtime"
	"slices"
	"testing"

	"sphenergy/internal/rng"
	"sphenergy/internal/sfc"
)

// gatherAll runs Gather for every particle at its own radius, ranked by it,
// and returns the concatenated output with the per-particle ends.
func gatherAll(g *Grid, radius []float64) (Candidates, []int) {
	var c Candidates
	ends := make([]int, len(radius))
	for i, r := range radius {
		g.Gather(&c, i, r, radius)
		ends[i] = len(c.Idx)
	}
	return c, ends
}

// owns is Gather's rank test with the radius as the rank: of a pair, the
// particle of the larger radius, the lower index between equals.
func owns(radius []float64, i, j int) bool {
	return radius[j] < radius[i] || radius[j] == radius[i] && j > i
}

// TestGatherMatchesForEachNeighbor holds Gather to the callback walk on the
// same grid — the neighbors the query particle outranks, in the same order,
// each with the walk's r² — at per-particle random radii (every fourth
// particle shares one, so ties are broken too), on periodic, open and mixed
// boxes, with the grid's cells finer than the radius (the candidate gather's
// case: several cells per run), matched to it, and so coarse that the box is
// two cells wide and every axis window covers the whole axis.
func TestGatherMatchesForEachNeighbor(t *testing.T) {
	for _, tc := range []struct {
		name          string
		pbx, pby, pbz bool
		cell          float64 // the grid is built for this radius
		rmin, rmax    float64 // queries draw theirs from this range
		walk          bool    // a window spans a periodic axis: no runs
		ly            float64 // the box's y extent
	}{
		{"periodic, radius 2-3 cells", true, true, true, 0.05, 0.1, 0.15, false, 1},
		{"periodic, radius within the cell", true, true, true, 0.1, 0.02, 0.1, false, 1},
		{"open, radius 2-3 cells", false, false, false, 0.05, 0.1, 0.15, false, 1},
		{"mixed, radius 1-2 cells", true, false, true, 0.08, 0.08, 0.16, false, 1},
		{"periodic, box two cells wide", true, true, true, 0.45, 0.1, 0.45, true, 1},
		{"open, box two cells wide", false, false, false, 0.45, 0.1, 0.45, false, 1},
		{"mixed, only the open axis spanned", true, false, true, 0.1, 0.1, 0.15, false, 0.25},
		{"periodic, window wider than the axis", true, true, true, 0.2, 0.3, 0.49, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			box := sfc.NewCube(-0.5, 0.5)
			box.PBCx, box.PBCy, box.PBCz = tc.pbx, tc.pby, tc.pbz
			box.Ymax = box.Ymin + tc.ly
			const n = 3000
			x, y, z := randomPoints(box, n, 17)
			r := rng.New(5)
			radius := make([]float64, n)
			for i := range radius {
				radius[i] = tc.rmin + (tc.rmax-tc.rmin)*r.Float64()
				if i%4 == 0 {
					radius[i] = (tc.rmin + tc.rmax) / 2
				}
			}
			g := BuildGrid(box, x, y, z, tc.cell)
			c, ends := gatherAll(g, radius)
			if len(c.R2) != len(c.Idx) {
				t.Fatalf("%d squared distances for %d indices", len(c.R2), len(c.Idx))
			}
			lo := 0
			for i, hi := range ends {
				var want []int32
				var wantR2 []float64
				g.ForEachNeighbor(i, radius[i], func(j int, dx, dy, dz, _ float64) {
					if owns(radius, i, j) {
						want, wantR2 = append(want, int32(j)), append(wantR2, dx*dx+dy*dy+dz*dz)
					}
				})
				if got := c.Idx[lo:hi]; !slices.Equal(got, want) {
					t.Fatalf("particle %d, radius %g: Gather found %v, ForEachNeighbor %v", i, radius[i], got, want)
				}
				for k, v := range c.R2[lo:hi] {
					// The run adds the image's box length where the walk
					// folds: the same distance to rounding.
					if d := v - wantR2[k]; d > 1e-12 || d < -1e-12 {
						t.Fatalf("particle %d, neighbor %d: r² %.17g, the walk has %.17g", i, want[k], v, wantR2[k])
					}
				}
				owned := 0
				for _, j := range bruteNeighbors(box, x, y, z, i, radius[i]) {
					if owns(radius, i, j) {
						owned++
					}
				}
				if owned != hi-lo {
					t.Fatalf("particle %d, radius %g: %d gathered, %d by brute force", i, radius[i], hi-lo, owned)
				}
				lo = hi
			}
			// Every unordered pair within the larger of its two radii, once:
			// those are the pairs brute force finds from the end of the
			// larger radius, which is the end that owns them.
			pairs := 0
			for i := range x {
				for _, j := range bruteNeighbors(box, x, y, z, i, radius[i]) {
					if j > i || !(dist2(box, x, y, z, i, j) < radius[j]*radius[j]) {
						pairs++
					}
				}
			}
			if pairs != len(c.Idx) {
				t.Fatalf("%d candidates gathered, %d unordered pairs lie within the larger of their radii", len(c.Idx), pairs)
			}
			if tc.walk != (c.Runs == 0) || !tc.walk && c.Tests < len(c.Idx) {
				t.Fatalf("%d tests and %d runs for %d results (callback walk expected: %v)", c.Tests, c.Runs, len(c.Idx), tc.walk)
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

// TestGatherIndependentOfWorkerCount: the grid bins in parallel past
// parallelBuildMinN, and what Gather then reads must not depend on how many
// workers binned it.
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
		if !slices.Equal(got.Idx, want.Idx) || !slices.Equal(got.R2, want.R2) || !slices.Equal(ends, wantEnds) || got.Tests != want.Tests || got.Runs != want.Runs {
			t.Fatalf("GOMAXPROCS %d: gather differs from the serial build's (%d/%d results, %d/%d tests, %d/%d runs)",
				procs, len(got.Idx), len(want.Idx), got.Tests, want.Tests, got.Runs, want.Runs)
		}
	}
}

// TestGatherZeroSteadyStateAllocs: once c.Idx has grown to the problem, a
// whole sweep of queries allocates nothing.
func TestGatherZeroSteadyStateAllocs(t *testing.T) {
	box := sfc.NewPeriodicCube(0, 1)
	const n = 8000
	x, y, z := randomPoints(box, n, 13)
	g := BuildGrid(box, x, y, z, 0.04)
	var c Candidates
	rank := make([]float64, n) // all equal: the lower index owns the pair
	sweep := func() {
		c.Idx, c.R2 = c.Idx[:0], c.R2[:0]
		for i := 0; i < n; i += 16 {
			g.Gather(&c, i, 0.08, rank)
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
