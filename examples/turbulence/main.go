// Subsonic turbulence, end to end: the real SPH solver drives a small
// periodic turbulent box (isothermal gas, solenoidal velocity field) and
// reports the RMS Mach number; then the instrumented paper-scale run
// compares all four frequency strategies on a single A100, reproducing the
// Fig. 7 comparison.
package main

import (
	"fmt"
	"log"

	"sphenergy"
	"sphenergy/internal/initcond"
	"sphenergy/internal/sph"
)

func main() {
	physicsDemo()
	strategyComparison()
}

// physicsDemo integrates a small subsonic turbulent box with the actual Go
// SPH implementation.
func physicsDemo() {
	fmt.Println("== Subsonic Turbulence, real SPH solver (small scale) ==")
	spec := initcond.DefaultTurbulence(16)
	spec.Mach = 0.3
	p, opt := initcond.Turbulence(spec)
	opt.NgTarget = 32
	st := sph.NewState(p, opt)

	fmt.Printf("particles: %d, target Mach: %.2f\n", p.N, spec.Mach)
	for i := 0; i < 20; i++ {
		dt := st.RunStep(nil)
		if (i+1)%5 == 0 {
			fmt.Printf("step %3d  t=%.5f  Mach_rms=%.3f  dt=%.2e\n",
				i+1, st.Time, st.MachRMS(), dt)
		}
	}
	e := st.ComputeEnergies(nil)
	fmt.Printf("kinetic %.4g, internal %.4g (subsonic: kinetic << internal)\n\n",
		e.Kinetic, e.Internal)
}

// strategyComparison is the paper's Fig. 7 workflow through the public API.
func strategyComparison() {
	fmt.Println("== Frequency strategies at paper scale (450^3 on a single A100) ==")
	system := sphenergy.MiniHPC()
	table, err := sphenergy.TuneFrequencies(system, sphenergy.Turbulence, 450*450*450, 150)
	if err != nil {
		log.Fatal(err)
	}

	strategies := []struct {
		name string
		mk   func() sphenergy.Strategy
	}{
		{"baseline-1410", sphenergy.Baseline()},
		{"static-1005", sphenergy.StaticMHz(1005)},
		{"dvfs", sphenergy.DVFS()},
		{"mandyn", sphenergy.ManDyn(table)},
	}

	var baseT, baseE float64
	fmt.Printf("%-15s %10s %12s %10s %10s %10s\n",
		"strategy", "time(s)", "GPU E (J)", "time*", "energy*", "EDP*")
	for _, s := range strategies {
		res, err := sphenergy.Run(sphenergy.Config{
			System:           system,
			Ranks:            1,
			Sim:              sphenergy.Turbulence,
			ParticlesPerRank: 450 * 450 * 450,
			Steps:            50,
			NewStrategy:      s.mk,
		})
		if err != nil {
			log.Fatal(err)
		}
		if s.name == "baseline-1410" {
			baseT, baseE = res.WallTimeS, res.GPUEnergyJ()
		}
		tn := res.WallTimeS / baseT
		en := res.GPUEnergyJ() / baseE
		fmt.Printf("%-15s %10.1f %12.0f %10.4f %10.4f %10.4f\n",
			s.name, res.WallTimeS, res.GPUEnergyJ(), tn, en, tn*en)
	}
	fmt.Println("(* normalized to baseline — the paper's Fig. 7 axes)")
}
