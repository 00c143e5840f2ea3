// Evrard collapse, end to end: first the *real* SPH solver (cell-grid
// neighbor search feeding a half pair list, IAD, volume elements,
// Barnes–Hut gravity) integrates a small Evrard sphere and reports physics
// diagnostics; then the same pipeline runs instrumented at paper scale
// (80 M particles per GPU, 32 ranks) on the simulated LUMI-G system with
// per-device energy attribution.
package main

import (
	"fmt"
	"log"

	"sphenergy"
	"sphenergy/internal/gravity"
	"sphenergy/internal/initcond"
	"sphenergy/internal/report"
	"sphenergy/internal/sph"
)

func main() {
	physicsDemo()
	energyRun()
}

// physicsDemo integrates the classic Evrard collapse at laptop scale with
// the actual Go SPH implementation: the cold gas sphere converts
// gravitational potential energy into kinetic and internal energy.
func physicsDemo() {
	fmt.Println("== Evrard collapse, real SPH solver (small scale) ==")
	p, opt := initcond.Evrard(initcond.DefaultEvrard(14))
	opt.NgTarget = 32
	st := sph.NewState(p, opt)

	pot := make([]float64, p.N)
	// Self-gravity via Barnes-Hut quadrupole tree, added to the step's
	// hydrodynamic accelerations.
	selfGravity := func(p *sph.Particles) {
		tree := gravity.Build(p.X, p.Y, p.Z, p.M, opt.GravTheta, opt.GravEps, opt.GravG)
		tree.AccelerationsInto(p.AX, p.AY, p.AZ, pot)
	}

	e0 := st.ComputeEnergies(pot)
	fmt.Printf("particles: %d\n", p.N)
	for i := 0; i < 30; i++ {
		st.RunStep(selfGravity)
		if (i+1)%10 == 0 {
			e := st.ComputeEnergies(pot)
			fmt.Printf("step %3d  t=%.4f  Ekin=%8.4f  Eint=%8.4f  Epot=%8.4f  Etot=%8.4f\n",
				i+1, st.Time, e.Kinetic, e.Internal, e.Potential, e.Total())
		}
	}
	e := st.ComputeEnergies(pot)
	fmt.Printf("kinetic energy gained: %.4f (collapse converts potential -> kinetic+internal)\n\n",
		e.Kinetic-e0.Kinetic)
}

// energyRun executes the instrumented paper-scale Evrard run on LUMI-G.
func energyRun() {
	fmt.Println("== Evrard collapse, instrumented at paper scale (LUMI-G, 32 ranks) ==")
	res, err := sphenergy.Run(sphenergy.Config{
		System:           sphenergy.LUMIG(),
		Ranks:            32,
		Sim:              sphenergy.Evrard,
		ParticlesPerRank: 80e6,
		Steps:            100,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("time-to-solution: %.0f s, total energy: %.2f MJ\n",
		res.WallTimeS, res.EnergyJ()/1e6)
	db := report.NewDeviceBreakdown(res.Report, sphenergy.LUMIG(), "Evrard")
	fmt.Print(db.Render())
	fb := report.NewFunctionBreakdown(res.Report, "Evrard")
	fmt.Print(fb.Render())
	fmt.Println("note: Gravity appears in the pipeline — the reason the paper pairs")
	fmt.Println("Evrard with Turbulence is exactly this extra computational kernel.")
}
