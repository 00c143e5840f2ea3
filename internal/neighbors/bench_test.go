package neighbors

import (
	"testing"

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
// at the engine's proportions: radius 3.4 h with 64 neighbors inside 2 h,
// cells of half the radius, every rank equal so that each pair is kept by
// its lower index.
func BenchmarkGather(b *testing.B) {
	box, x, y, z := benchPoints(27000)
	const radius = 0.14
	g := BuildGrid(box, x, y, z, radius/2)
	var c Candidates
	rank := make([]float64, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c = Candidates{Idx: c.Idx[:0], R2: c.R2[:0]}
		for p := range x {
			g.Gather(&c, p, radius, rank)
		}
	}
	b.ReportMetric(float64(c.Tests)/float64(len(x)), "tests/particle")
	b.ReportMetric(float64(len(c.Idx))/float64(len(x)), "cand/particle")
}
