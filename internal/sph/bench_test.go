package sph_test

import (
	"testing"

	"sphenergy/internal/initcond"
	"sphenergy/internal/sph"
)

// BenchmarkRunStep steps the production pipeline through RunStep on the
// turb30 workload of `go run ./benchmark` (a 30³ turbulent box, options as
// the generator returns them). The benchmark program has no profile flag;
// this is the profiling entry for the engine:
//
//	go test -run '^$' -bench RunStep -benchtime 100x -cpuprofile cpu.pprof -memprofile heap.pprof ./internal/sph/
//
// and `go tool pprof -top cpu.pprof` reads the result. A hundred steps hold
// rebuilds, refreshes and the SFC reorders (Options.ReorderEvery is 32).
func BenchmarkRunStep(b *testing.B) {
	p, opt := initcond.Turbulence(initcond.DefaultTurbulence(30))
	st := sph.NewState(p, opt)
	st.RunStep(nil) // settle the smoothing lengths, size the buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.RunStep(nil)
	}
}
