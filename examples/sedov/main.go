// Sedov–Taylor blast wave: a point explosion in a uniform medium drives a
// spherical shock. The real Go SPH solver integrates it and tracks the
// shock radius against the self-similar r ∝ t^(2/5) law — an extra
// validation workload beyond the paper's two (its §V future work proposes
// applying the method to more codes).
package main

import (
	"fmt"
	"math"

	"sphenergy/internal/initcond"
	"sphenergy/internal/sph"
)

// shockRadius estimates the blast radius as the RMS radius of particles
// weighted by their kinetic energy.
func shockRadius(p *sph.Particles) float64 {
	var wsum, rsum float64
	for i := 0; i < p.N; i++ {
		v2 := p.VX[i]*p.VX[i] + p.VY[i]*p.VY[i] + p.VZ[i]*p.VZ[i]
		dx, dy, dz := p.X[i]-0.5, p.Y[i]-0.5, p.Z[i]-0.5
		r := math.Sqrt(dx*dx + dy*dy + dz*dz)
		rsum += v2 * r
		wsum += v2
	}
	if wsum == 0 {
		return 0
	}
	return rsum / wsum
}

func main() {
	p, opt := initcond.Sedov(initcond.SedovSpec{NSide: 20, E0: 1, Rho0: 1, Seed: 3})
	opt.NgTarget = 40
	st := sph.NewState(p, opt)
	fmt.Printf("Sedov blast: %d particles, E0 = 1 deposited at the center\n\n", p.N)
	fmt.Printf("%8s %10s %12s %14s\n", "step", "time", "shock r", "r / t^(2/5)")

	for i := 0; i < 60; i++ {
		st.RunStep(nil)
		if (i+1)%10 == 0 {
			r := shockRadius(p)
			selfSim := r / math.Pow(st.Time, 0.4)
			fmt.Printf("%8d %10.5f %12.4f %14.3f\n", i+1, st.Time, r, selfSim)
		}
	}

	e := st.ComputeEnergies(nil)
	fmt.Printf("\nenergy budget: kinetic %.3f + internal %.3f = %.3f (injected 1.0)\n",
		e.Kinetic, e.Internal, e.Total())
	fmt.Println("the r/t^(2/5) column approaching a constant is the Sedov-Taylor")
	fmt.Println("self-similar solution.")
}
