package neighbors

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"sphenergy/internal/rng"
	"sphenergy/internal/sfc"
)

// The buffer-reusing build must reach a steady state where rebuilding the
// grid in place allocates nothing: the Verlet-skin loop rebuilds every few
// steps, and any per-rebuild allocation would show up as GC pressure across
// a whole campaign. n stays below parallelBuildMinN, where the binning is
// one chunk: several chunks spawn goroutines (which allocate) by design.
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
// whose size, box, periodicity, search radius and GOMAXPROCS (binning in
// one chunk and in several) all change, and holds every rebuild to a fresh
// BuildGrid of the same input: same resolution, same cell layout, same
// neighbor sets in the same order. Then both gather with radii drawn from
// the input, spread up to tenfold, through the reused radius copy and cell
// maxima: the same candidates, every pair within the larger of its radii
// once.
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
			radii := fuzzRadii(n, radius, data[0], data[3])
			if !gatherAffordable(g, radii) {
				continue
			}
			got, gotEnds := gatherAll(g, radii)
			want, wantEnds := gatherAll(fresh, radii)
			if !slices.Equal(got.Idx, want.Idx) || !slices.Equal(got.Key, want.Key) || !slices.Equal(gotEnds, wantEnds) || got.Tests != want.Tests || got.Runs != want.Runs {
				t.Fatalf("n=%d procs=%d: the reused grid gathers %d candidates in %d tests, a fresh one %d in %d",
					n, runtime.GOMAXPROCS(0), len(got.Idx), got.Tests, len(want.Idx), want.Tests)
			}
			requireCoveredOnce(t, got, gotEnds, box, x, y, z, radii)
		}
	})
}

// fuzzRadii draws n radii from the fuzz input: up to radius, spread by a
// factor of 1 to 10 that spread picks.
func fuzzRadii(n int, radius float64, spread, seed byte) []float64 {
	lo := radius / (1 + 9*float64(spread)/255)
	r := rng.New(uint64(seed) + 99)
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (radius-lo)*r.Float64()
	}
	return out
}

// gatherAffordable reports whether a whole gather at these radii stays
// within some 10⁷ distance tests — n² times the share of the cells a
// window covers — which keeps a fuzz execution short on coarse grids over
// many points.
func gatherAffordable(g *Grid, radii []float64) bool {
	g.SetRadii(radii)
	share := 1.0
	for a, n := range [3]int{g.nx, g.ny, g.nz} {
		share *= float64(min(n, 2*g.span[a]+1)) / float64(n)
	}
	n := float64(len(radii))
	return n*n*share <= 1e7
}

// requireCoveredOnce holds a whole gather to brute force: no pair found
// twice, each found one within the larger of its radii with the reference
// key, and of every sampled particle each such pair found.
func requireCoveredOnce(t *testing.T, c Candidates, ends []int, box sfc.Box, x, y, z, radii []float64) {
	t.Helper()
	key := func(i, j int) float64 {
		return dist2(box, x, y, z, i, j) * min(1/(radii[i]*radii[i]), 1/(radii[j]*radii[j]))
	}
	found := map[pair]bool{}
	lo := 0
	for i, hi := range ends {
		for k := lo; k < hi; k++ {
			j := int(c.Idx[k])
			p := pairOf(int32(i), int32(j))
			if j == i || found[p] || math.Abs(c.Key[k]-key(i, j)) > 1e-12 || !(key(i, j) < 1) {
				t.Fatalf("pair {%d,%d}: key %.17g, brute force %.17g, found before: %v", i, j, c.Key[k], key(i, j), found[p])
			}
			found[p] = true
		}
		lo = hi
	}
	n := len(x)
	for i := 0; i < n; i += 1 + n/50 {
		for j := range x {
			if j != i && key(i, j) < 1 && !found[pairOf(int32(i), int32(j))] {
				t.Fatalf("n=%d: pair {%d,%d} lies within the larger radius and was not gathered", n, i, j)
			}
		}
	}
}
