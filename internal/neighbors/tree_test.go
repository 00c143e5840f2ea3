package neighbors

import (
	"sort"
	"testing"
	"testing/quick"

	"sphenergy/internal/sfc"
)

func TestTreeMatchesBruteForceOpenBox(t *testing.T) {
	box := sfc.NewCube(0, 1)
	x, y, z := randomPoints(box, 600, 21)
	const radius = 0.12
	ts := BuildTree(box, x, y, z, 32)
	for i := 0; i < 60; i++ {
		got := ts.Neighbors(i, radius)
		sort.Ints(got)
		want := bruteNeighbors(box, x, y, z, i, radius)
		if !equalInts(got, want) {
			t.Fatalf("particle %d: got %v, want %v", i, got, want)
		}
	}
}

func TestTreeMatchesBruteForcePeriodic(t *testing.T) {
	box := sfc.NewPeriodicCube(0, 1)
	x, y, z := randomPoints(box, 600, 22)
	const radius = 0.14
	ts := BuildTree(box, x, y, z, 32)
	for i := 0; i < 60; i++ {
		got := ts.Neighbors(i, radius)
		sort.Ints(got)
		want := bruteNeighbors(box, x, y, z, i, radius)
		if !equalInts(got, want) {
			t.Fatalf("particle %d: got %v, want %v", i, got, want)
		}
	}
}

func TestTreeMatchesGrid(t *testing.T) {
	// The two backends are interchangeable: identical neighbor sets.
	box := sfc.NewPeriodicCube(0, 1)
	x, y, z := randomPoints(box, 800, 23)
	const radius = 0.1
	grid := BuildGrid(box, x, y, z, radius)
	tree := BuildTree(box, x, y, z, 64)
	for i := 0; i < len(x); i += 13 {
		g := grid.Neighbors(i, radius)
		tr := tree.Neighbors(i, radius)
		sort.Ints(g)
		sort.Ints(tr)
		if !equalInts(g, tr) {
			t.Fatalf("particle %d: grid %v != tree %v", i, g, tr)
		}
	}
}

func TestTreeCountsAndProperty(t *testing.T) {
	f := func(seed uint64, periodic bool) bool {
		box := sfc.NewCube(0, 1)
		if periodic {
			box = sfc.NewPeriodicCube(0, 1)
		}
		x, y, z := randomPoints(box, 150, seed)
		radius := 0.05 + 0.15*float64(seed%5)/5
		ts := BuildTree(box, x, y, z, 16)
		for i := 0; i < 8; i++ {
			got := ts.Neighbors(i, radius)
			sort.Ints(got)
			if !equalInts(got, bruteNeighbors(box, x, y, z, i, radius)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTreeLeafSizeIndependence(t *testing.T) {
	box := sfc.NewCube(0, 1)
	x, y, z := randomPoints(box, 400, 24)
	const radius = 0.1
	coarse := BuildTree(box, x, y, z, 256)
	fine := BuildTree(box, x, y, z, 8)
	if fine.NumLeaves() <= coarse.NumLeaves() {
		t.Error("smaller buckets should yield more leaves")
	}
	for i := 0; i < 40; i++ {
		a := coarse.Neighbors(i, radius)
		b := fine.Neighbors(i, radius)
		sort.Ints(a)
		sort.Ints(b)
		if !equalInts(a, b) {
			t.Fatalf("bucket size changed results for particle %d", i)
		}
	}
}

func TestTreeCountNeighbors(t *testing.T) {
	box := sfc.NewCube(0, 1)
	x, y, z := randomPoints(box, 300, 25)
	ts := BuildTree(box, x, y, z, 32)
	for i := 0; i < 20; i++ {
		if got, want := ts.CountNeighbors(i, 0.1), len(ts.Neighbors(i, 0.1)); got != want {
			t.Fatalf("count %d != len %d", got, want)
		}
	}
}
