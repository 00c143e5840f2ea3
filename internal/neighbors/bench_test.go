package neighbors

import (
	"cmp"
	"slices"
	"testing"

	"sphenergy/internal/rng"
	"sphenergy/internal/sfc"
)

func benchPoints(n int) (sfc.Box, []float64, []float64, []float64) {
	box := sfc.NewPeriodicCube(0, 1)
	x, y, z := randomPoints(box, n, 7)
	return box, x, y, z
}

func BenchmarkGridBuild(b *testing.B) {
	box, x, y, z := benchPoints(50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildGrid(box, x, y, z, 0.05)
	}
}

// BenchmarkGridBuildReuse is the steady-state path the SPH loop takes: the
// same Grid is rebuilt in place every step, so after warm-up the allocation
// column should read zero.
func BenchmarkGridBuildReuse(b *testing.B) {
	box, x, y, z := benchPoints(50000)
	var g *Grid
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = BuildGridInto(g, box, x, y, z, 0.05)
	}
}

func BenchmarkGridQuery(b *testing.B) {
	box, x, y, z := benchPoints(50000)
	g := BuildGrid(box, x, y, z, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += g.CountNeighbors(i%50000, 0.05)
	}
	b.ReportMetric(float64(total)/float64(b.N), "neighbors/query")
}

// BenchmarkGather is one candidate gather per particle of a 30³ point set
// at the engine's proportions: radii of 3.4 h with 64 neighbors inside 2 h,
// spread ±10 % as the engine's smoothing lengths are, so that the per-cell
// pruning has radii to tell apart, on cells of half the largest radius. The
// points are in Morton order, as the engine's particles are
// (sph.State.ReorderBySFC), so that a query's neighbours lie near it in
// memory and the time per test is the engine's; in random order every load
// of a coordinate through the grid's order is a cache miss.
func BenchmarkGather(b *testing.B) {
	box, x, y, z := benchPoints(27000)
	sortBySFC(box, x, y, z)
	r := rng.New(11)
	radius := make([]float64, len(x))
	for i := range radius {
		radius[i] = 0.14 * (0.9 + 0.2*r.Float64())
	}
	g := BuildGrid(box, x, y, z, slices.Max(radius)/2)
	g.SetRadii(radius)
	var c Candidates
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c = Candidates{Idx: c.Idx[:0], Key: c.Key[:0]}
		for p := range x {
			g.Gather(&c, p)
		}
	}
	b.ReportMetric(float64(c.Tests)/float64(len(x)), "tests/particle")
	b.ReportMetric(float64(len(c.Idx))/float64(len(x)), "cand/particle")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.Tests), "ns/test")
}

// sortBySFC puts the points in the order of their Morton keys in the box.
func sortBySFC(box sfc.Box, x, y, z []float64) {
	type point struct {
		key     sfc.Key
		x, y, z float64
	}
	pts := make([]point, len(x))
	for i := range pts {
		pts[i] = point{box.KeyOf(x[i], y[i], z[i]), x[i], y[i], z[i]}
	}
	slices.SortStableFunc(pts, func(a, b point) int { return cmp.Compare(a.key, b.key) })
	for i, p := range pts {
		x[i], y[i], z[i] = p.x, p.y, p.z
	}
}
