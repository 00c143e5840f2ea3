package neighbors

import (
	"runtime"
	"slices"
	"testing"

	"sphenergy/internal/sfc"
)

// The buffer-reusing build must reach a steady state where rebuilding the
// grid in place allocates nothing: the Verlet-skin loop rebuilds every few
// steps, and any per-rebuild allocation would show up as GC pressure across
// a whole campaign. n stays below the parallel-build threshold because the
// parallel path spawns goroutines (which allocate) by design.
func TestBuildGridIntoZeroSteadyStateAllocs(t *testing.T) {
	box := sfc.NewPeriodicCube(0, 1)
	const n = 8000
	x, y, z := randomPoints(box, n, 11)

	var g *Grid
	// Warm-up: first build sizes every scratch buffer.
	g = BuildGridInto(g, box, x, y, z, 0.08)

	allocs := testing.AllocsPerRun(20, func() {
		g = BuildGridInto(g, box, x, y, z, 0.08)
	})
	if allocs != 0 {
		t.Errorf("warm BuildGridInto allocates %.1f objects/run, want 0", allocs)
	}
}

// Queries over a warm grid must not allocate either — the per-axis scan
// buffers live on the stack.
func TestGridQueryZeroAllocs(t *testing.T) {
	box := sfc.NewPeriodicCube(0, 1)
	const n = 8000
	x, y, z := randomPoints(box, n, 13)
	g := BuildGrid(box, x, y, z, 0.08)

	sink := 0
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 64; i++ {
			sink += g.CountNeighbors(i, 0.08)
		}
	})
	if allocs != 0 {
		t.Errorf("warm CountNeighbors allocates %.1f objects/run, want 0", allocs)
	}
	if sink == 0 {
		t.Error("queries found no neighbors; test inputs are degenerate")
	}
}

// BuildGridInto must produce exactly the layout BuildGrid does — same cells,
// same particle order — whether building fresh or overwriting a grid that
// previously held a different point set.
func TestBuildGridIntoMatchesBuildGrid(t *testing.T) {
	box := sfc.NewPeriodicCube(0, 1)
	xa, ya, za := randomPoints(box, 5000, 3)
	xb, yb, zb := randomPoints(box, 9000, 5)

	fresh := BuildGrid(box, xb, yb, zb, 0.07)

	// Reused grid: first filled from point set A at a different radius,
	// then rebuilt in place from point set B.
	g := BuildGridInto(nil, box, xa, ya, za, 0.11)
	g = BuildGridInto(g, box, xb, yb, zb, 0.07)

	if len(g.cellOff) != len(fresh.cellOff) {
		t.Fatalf("cellOff length %d != %d", len(g.cellOff), len(fresh.cellOff))
	}
	for i := range fresh.cellOff {
		if g.cellOff[i] != fresh.cellOff[i] {
			t.Fatalf("cellOff[%d] = %d, want %d", i, g.cellOff[i], fresh.cellOff[i])
		}
	}
	if len(g.order) != len(fresh.order) {
		t.Fatalf("order length %d != %d", len(g.order), len(fresh.order))
	}
	for i := range fresh.order {
		if g.order[i] != fresh.order[i] {
			t.Fatalf("order[%d] = %d, want %d", i, g.order[i], fresh.order[i])
		}
	}
	for i := 0; i < 200; i++ {
		if got, want := g.CountNeighbors(i, 0.07), fresh.CountNeighbors(i, 0.07); got != want {
			t.Fatalf("CountNeighbors(%d) = %d, want %d", i, got, want)
		}
	}
}

// FuzzBuildGridIntoReuse rebuilds one grid over a sequence of point sets
// whose size, box, periodicity, search radius and GOMAXPROCS (serial and
// parallel binning) all change, and holds every rebuild to a fresh
// BuildGrid of the same input: same resolution, same cell layout, same
// neighbor sets in the same order.
func FuzzBuildGridIntoReuse(f *testing.F) {
	f.Add([]byte{200, 1, 3, 9, 255, 5, 0, 20, 40, 2, 80, 5, 255, 7, 255, 3, 3, 0, 9, 1})
	f.Add([]byte{255, 6, 1, 60, 2, 3, 7, 1, 255, 4, 201, 2, 9, 0, 255, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		var g *Grid
		for ; len(data) >= 4; data = data[4:] {
			runtime.GOMAXPROCS([]int{1, 2, 4, 32}[data[1]%4])
			n := 1 + int(data[0])*int(1+data[1]/4%2*79) // up to 20 401: past parallelBuildMinN
			box := sfc.NewCube(-float64(data[2]%3), 1+float64(data[2]/3%4))
			box.PBCx, box.PBCy, box.PBCz = data[2]&64 != 0, data[2]&128 != 0, data[1]&128 != 0
			radius := box.Lx() / float64(2+int(data[3])%40)
			x, y, z := randomPoints(box, n, uint64(data[3])+1)

			g = BuildGridInto(g, box, x, y, z, radius)
			fresh := BuildGrid(box, x, y, z, radius)
			if g.nx != fresh.nx || g.ny != fresh.ny || g.nz != fresh.nz {
				t.Fatalf("n=%d: reused grid is %dx%dx%d, fresh %dx%dx%d", n, g.nx, g.ny, g.nz, fresh.nx, fresh.ny, fresh.nz)
			}
			if !slices.Equal(g.cellOff, fresh.cellOff) || !slices.Equal(g.order, fresh.order) {
				t.Fatalf("n=%d procs=%d: reused grid's cell layout differs from a fresh build", n, runtime.GOMAXPROCS(0))
			}
			for i := 0; i < n; i += 1 + n/50 {
				if got, want := g.Neighbors(i, radius), fresh.Neighbors(i, radius); !slices.Equal(got, want) {
					t.Fatalf("n=%d: Neighbors(%d) = %v on the reused grid, %v fresh", n, i, got, want)
				}
			}
		}
	})
}
