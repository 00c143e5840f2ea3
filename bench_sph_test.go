package sphenergy

import (
	"testing"

	"sphenergy/internal/initcond"
	"sphenergy/internal/sph"
)

// BenchmarkSPHStep measures the real Go SPH solver's step throughput on the
// production neighbor-list pipeline. It is also the profiling entry for
// the engine: standard Go tooling attaches to it,
//
//	go test -run '^$' -bench 'SPHStep$' -cpuprofile cpu.pprof -memprofile heap.pprof .
//
// and `go tool pprof -top cpu.pprof` reads the result.
func BenchmarkSPHStep(b *testing.B) {
	benchmarkSPHStepMode(b, 16, false)
}

func BenchmarkSPHStepLarge(b *testing.B) {
	benchmarkSPHStepMode(b, 24, false)
}

// benchmarkSPHStepMode drives the solver for b.N full pipeline steps on an
// nSide³ turbulent box.
func benchmarkSPHStepMode(b *testing.B, nSide int, closureWalk bool) {
	p, opt := initcond.Turbulence(initcond.DefaultTurbulence(nSide))
	opt.NgTarget = 48
	opt.ClosureWalk = closureWalk
	st := sph.NewState(p, opt)
	// Warm-up: settle smoothing lengths.
	st.FindNeighbors()
	st.XMass()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.FindNeighbors()
		st.XMass()
		st.NormalizationGradh()
		st.EquationOfState()
		st.IADVelocityDivCurl()
		st.AVSwitches(st.Dt)
		st.MomentumEnergy()
		dt := st.Timestep()
		st.UpdateQuantities(dt)
	}
	b.ReportMetric(float64(p.N), "particles")
}

// BenchmarkSPHStepWalk measures the closure-walk reference pipeline at
// BenchmarkSPHStep's size; the ratio of the two is the neighbor-list
// speedup.
func BenchmarkSPHStepWalk(b *testing.B) {
	benchmarkSPHStepMode(b, 16, true)
}
