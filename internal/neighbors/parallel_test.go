package neighbors

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"sphenergy/internal/par"
	"sphenergy/internal/sfc"
)

// TestParallelGridBuildMatchesSerial holds the binning's layout to a
// reference the test computes itself: the particle indices stably sorted by
// cell, with each cell's offset into them. That order — ascending particle
// index within each cell — is what keeps SPH floating-point summation order
// the same however many chunks bin the grid, so it is checked at every
// width, on both sides of parallelBuildMinN and on a grid finer than
// parallelBuildMaxCells, which bins in one chunk.
func TestParallelGridBuildMatchesSerial(t *testing.T) {
	box := sfc.NewPeriodicCube(0, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		n      int
		radius float64
	}{
		{parallelBuildMinN - 1, 0.05},
		{parallelBuildMinN, 0.05},
		{20000, 0.05},
		{20000, 1.0 / 128}, // 128³ cells, past parallelBuildMaxCells
	} {
		x, y, z := randomPoints(box, tc.n, 7)
		for _, procs := range []int{1, 2, 4, 32} {
			t.Run(fmt.Sprintf("n=%d/r=%.3g/procs=%d", tc.n, tc.radius, procs), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				g := BuildGrid(box, x, y, z, tc.radius)
				ncells := g.nx * g.ny * g.nz
				if tc.radius < 0.01 && ncells <= parallelBuildMaxCells {
					t.Fatalf("%d cells: the fine grid is no longer past parallelBuildMaxCells", ncells)
				}
				if procs > 1 && tc.n >= parallelBuildMinN && ncells <= parallelBuildMaxCells && par.Chunks(tc.n) < 2 {
					t.Fatalf("%d particles bin in one chunk at width %d; the case no longer runs in parallel", tc.n, procs)
				}
				cell := make([]int, tc.n)
				order := make([]int32, tc.n)
				for i := range order {
					cell[i], order[i] = g.cellOf(x[i], y[i], z[i]), int32(i)
				}
				slices.SortStableFunc(order, func(a, b int32) int { return cell[a] - cell[b] })
				cellOff := make([]int32, ncells+1)
				for _, i := range order {
					cellOff[cell[i]+1]++
				}
				for c := range ncells {
					cellOff[c+1] += cellOff[c]
				}
				if !slices.Equal(g.cellOff, cellOff) {
					t.Fatal("cellOff differs from the reference counting")
				}
				for k := range order {
					if g.order[k] != order[k] {
						t.Fatalf("order[%d] = %d, the stable sort by cell has %d", k, g.order[k], order[k])
					}
				}
			})
		}
	}
}
