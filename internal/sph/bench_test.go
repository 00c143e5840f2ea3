package sph_test

import (
	"testing"

	"sphenergy/internal/gravity"
	"sphenergy/internal/initcond"
	"sphenergy/internal/sph"
)

// BenchmarkRunStep steps the production pipeline through RunStep on the two
// engine workloads of `go run ./benchmark`, options as the generators return
// them: turb30, a 30³ turbulent box, and evrard30, the side-30 Evrard sphere
// with Barnes-Hut self-gravity as the step's extra acceleration. The
// benchmark program has no profile flag; this is the profiling entry for the
// engine:
//
//	go test -run '^$' -bench RunStep/turb30 -benchtime 100x -cpuprofile cpu.pprof -memprofile heap.pprof ./internal/sph/
//
// and `go tool pprof -top cpu.pprof` reads the result. A hundred steps hold
// rebuilds, refreshes and the SFC reorders (Options.ReorderEvery is 32).
func BenchmarkRunStep(b *testing.B) {
	b.Run("turb30", func(b *testing.B) {
		p, opt := initcond.Turbulence(initcond.DefaultTurbulence(30))
		benchSteps(b, sph.NewState(p, opt), nil)
	})
	b.Run("evrard30", func(b *testing.B) {
		p, opt := initcond.Evrard(initcond.DefaultEvrard(30))
		pot := make([]float64, p.N)
		benchSteps(b, sph.NewState(p, opt), func(p *sph.Particles) {
			gravity.Build(p.X, p.Y, p.Z, p.M, opt.GravTheta, opt.GravEps, opt.GravG).AccelerationsInto(p.AX, p.AY, p.AZ, pot)
		})
	})
}

func benchSteps(b *testing.B, st *sph.State, extra func(*sph.Particles)) {
	st.RunStep(extra) // settle the smoothing lengths, size the buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.RunStep(extra)
	}
}

// BenchmarkPairPasses times each of the three sweeps over the pair list —
// XMass, IADVelocityDivCurl, MomentumEnergy — on its own, over the list of
// one turb30 step, and reports per pass the time per record (prologue and
// epilogue included), the records of that step (exact), and the bytes each
// record streams through the pass's sweeps, from the layout of the record
// and kernel-cache arrays they read or write in record order.
func BenchmarkPairPasses(b *testing.B) {
	p, opt := initcond.Turbulence(initcond.DefaultTurbulence(30))
	st := sph.NewState(p, opt)
	for i := 0; i < 3; i++ {
		st.RunStep(nil)
	}
	st.FindNeighbors()
	st.XMass()
	st.NormalizationGradh()
	st.EquationOfState()
	st.IADVelocityDivCurl()
	st.AVSwitches(st.Dt)
	records := len(st.List.PairIdx)
	for _, pass := range []struct {
		name string
		run  func()
	}{
		{sph.PassXMass, st.XMass},
		{sph.PassIAD, st.IADVelocityDivCurl},
		{sph.PassMomentumEnergy, st.MomentumEnergy},
	} {
		b.Run(pass.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pass.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
			b.ReportMetric(float64(records), "records/step")
			b.ReportMetric(float64(sph.StreamedBytesPerRecord(pass.name)), "B/record")
		})
	}
	if got := st.NbrStats.WalkFallbacks; got != 0 {
		b.Fatalf("%d passes walked the grid", got)
	}
}
