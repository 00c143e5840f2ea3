package neighbors

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"sphenergy/internal/rng"
	"sphenergy/internal/sfc"
)

// bruteNeighbors is the O(n²) reference implementation.
func bruteNeighbors(box sfc.Box, x, y, z []float64, i int, radius float64) []int {
	var out []int
	r2 := radius * radius
	for j := range x {
		if j == i {
			continue
		}
		dx := MinImage(x[i]-x[j], box.Lx(), box.PBCx)
		dy := MinImage(y[i]-y[j], box.Ly(), box.PBCy)
		dz := MinImage(z[i]-z[j], box.Lz(), box.PBCz)
		if dx*dx+dy*dy+dz*dz < r2 {
			out = append(out, j)
		}
	}
	sort.Ints(out)
	return out
}

func randomPoints(box sfc.Box, n int, seed uint64) (x, y, z []float64) {
	r := rng.New(seed)
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = box.Xmin + r.Float64()*box.Lx()
		y[i] = box.Ymin + r.Float64()*box.Ly()
		z[i] = box.Zmin + r.Float64()*box.Lz()
	}
	return
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMatchesBruteForceOpenBox(t *testing.T) {
	box := sfc.NewCube(0, 1)
	x, y, z := randomPoints(box, 500, 1)
	const radius = 0.11
	g := BuildGrid(box, x, y, z, radius)
	for i := 0; i < 50; i++ {
		got := g.Neighbors(i, radius)
		sort.Ints(got)
		want := bruteNeighbors(box, x, y, z, i, radius)
		if !equalInts(got, want) {
			t.Fatalf("particle %d: got %v, want %v", i, got, want)
		}
	}
}

func TestMatchesBruteForcePeriodic(t *testing.T) {
	box := sfc.NewPeriodicCube(0, 1)
	x, y, z := randomPoints(box, 500, 2)
	const radius = 0.13
	g := BuildGrid(box, x, y, z, radius)
	for i := 0; i < 50; i++ {
		got := g.Neighbors(i, radius)
		sort.Ints(got)
		want := bruteNeighbors(box, x, y, z, i, radius)
		if !equalInts(got, want) {
			t.Fatalf("particle %d: got %v, want %v", i, got, want)
		}
	}
}

func TestPeriodicFindsWrappedNeighbors(t *testing.T) {
	box := sfc.NewPeriodicCube(0, 1)
	x := []float64{0.01, 0.99}
	y := []float64{0.5, 0.5}
	z := []float64{0.5, 0.5}
	g := BuildGrid(box, x, y, z, 0.1)
	if n := g.CountNeighbors(0, 0.1); n != 1 {
		t.Errorf("wrapped neighbor not found: count = %d", n)
	}
	// In the open box they are far apart.
	ob := sfc.NewCube(0, 1)
	go2 := BuildGrid(ob, x, y, z, 0.1)
	if n := go2.CountNeighbors(0, 0.1); n != 0 {
		t.Errorf("open box found phantom neighbor: count = %d", n)
	}
}

func TestNoDuplicateNeighborsSmallGrid(t *testing.T) {
	// A radius comparable to the box size forces the whole-axis scan path;
	// each neighbor must still appear exactly once.
	box := sfc.NewPeriodicCube(0, 1)
	x, y, z := randomPoints(box, 60, 3)
	const radius = 0.45
	g := BuildGrid(box, x, y, z, radius)
	for i := 0; i < len(x); i++ {
		ns := g.Neighbors(i, radius)
		seen := map[int]bool{}
		for _, j := range ns {
			if seen[j] {
				t.Fatalf("particle %d: duplicate neighbor %d", i, j)
			}
			if j == i {
				t.Fatalf("particle %d listed as its own neighbor", i)
			}
			seen[j] = true
		}
	}
}

func TestDisplacementMinimumImage(t *testing.T) {
	box := sfc.NewPeriodicCube(0, 1)
	x := []float64{0.05, 0.95}
	y := []float64{0.5, 0.5}
	z := []float64{0.5, 0.5}
	g := BuildGrid(box, x, y, z, 0.2)
	dx, _, _, r2 := g.Displacement(0, 1)
	if math.Abs(dx-0.1) > 1e-12 {
		t.Errorf("minimum image dx = %v, want 0.1", dx)
	}
	if math.Abs(r2-0.01) > 1e-12 {
		t.Errorf("r2 = %v, want 0.01", r2)
	}
}

func TestCallbackDistanceConsistency(t *testing.T) {
	box := sfc.NewCube(0, 1)
	x, y, z := randomPoints(box, 200, 4)
	g := BuildGrid(box, x, y, z, 0.15)
	g.ForEachNeighbor(7, 0.15, func(j int, dx, dy, dz, dist float64) {
		if math.Abs(math.Sqrt(dx*dx+dy*dy+dz*dz)-dist) > 1e-12 {
			t.Errorf("dist inconsistent with displacement for neighbor %d", j)
		}
		if dist >= 0.15 {
			t.Errorf("neighbor %d beyond radius: %v", j, dist)
		}
	})
}

func TestQuickPropertyAgainstBruteForce(t *testing.T) {
	f := func(seed uint64, periodic bool) bool {
		box := sfc.NewCube(0, 1)
		if periodic {
			box = sfc.NewPeriodicCube(0, 1)
		}
		x, y, z := randomPoints(box, 120, seed)
		radius := 0.05 + 0.2*float64(seed%7)/7
		g := BuildGrid(box, x, y, z, radius)
		for i := 0; i < 10; i++ {
			got := g.Neighbors(i, radius)
			sort.Ints(got)
			if !equalInts(got, bruteNeighbors(box, x, y, z, i, radius)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBuildGridPanicsOnBadRadius(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BuildGrid with radius 0 did not panic")
		}
	}()
	BuildGrid(sfc.NewCube(0, 1), nil, nil, nil, 0)
}

func TestEmptyGrid(t *testing.T) {
	g := BuildGrid(sfc.NewCube(0, 1), []float64{}, []float64{}, []float64{}, 0.1)
	if g == nil {
		t.Fatal("nil grid for empty input")
	}
}
