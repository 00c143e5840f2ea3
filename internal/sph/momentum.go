package sph

import (
	"math"

	"sphenergy/internal/par"
)

// AVSwitches evolves the per-particle artificial-viscosity coefficient alpha
// following the Morris & Monaghan (1997) switch: alpha rises on compression
// (negative velocity divergence) and decays toward alphaMin on a timescale
// proportional to the sound-crossing time of the smoothing volume.
func (s *State) AVSwitches(dt float64) {
	p := s.P
	par.For(p.N, func(i int) {
		tau := p.H[i] / (avDecayTime*p.C[i] + 1e-30)
		decay := (alphaMin - p.Alpha[i]) / tau
		source := 0.0
		if p.DivV[i] < 0 {
			source = -p.DivV[i] * (alphaMax - p.Alpha[i])
		}
		a := p.Alpha[i] + dt*(decay+source)
		if a < alphaMin {
			a = alphaMin
		}
		if a > alphaMax {
			a = alphaMax
		}
		p.Alpha[i] = a
	})
}

// MomentumEnergy computes hydrodynamic accelerations and internal-energy
// rates with the gradh-corrected, pairwise-symmetric SPH formulation plus
// Monaghan artificial viscosity with Balsara limiter. This is the most
// compute-intensive kernel of the pipeline — the paper's MomentumEnergy.
func (s *State) MomentumEnergy() {
	if s.useCached() {
		s.momentumPairs()
	} else {
		s.momentumWalk()
	}
}

// momentumPair evaluates one interacting pair (i, j) of the momentum and
// energy equations, returning i's acceleration and du/dt contributions.
// (dx, dy, dz) is x_i - x_j and dist its norm; hi, prhoi and fi are i's
// smoothing length, P/(Omega rho^2) and Balsara factor, hoisted by the
// caller.
func (s *State) momentumPair(i, j int, hi, prhoi, fi, dx, dy, dz, dist float64) (ax, ay, az, du float64) {
	p := s.P
	hj := p.H[j]
	rhoi := p.Rho[i]
	rhoj := p.Rho[j]
	prhoj := p.P[j] / (p.Gradh[j] * rhoj * rhoj)
	// Symmetrized kernel gradient magnitude along r_ij.
	dwi := s.Opt.Kernel.DW(dist, hi)
	dwj := s.Opt.Kernel.DW(dist, hj)
	// Unit vector from j to i is (dx,dy,dz)/dist.
	invr := 1 / (dist + 1e-30)
	ex, ey, ez := dx*invr, dy*invr, dz*invr

	// Artificial viscosity (Monaghan 1992 with Balsara limiter).
	dvx := p.VX[i] - p.VX[j]
	dvy := p.VY[i] - p.VY[j]
	dvz := p.VZ[i] - p.VZ[j]
	vdotr := dvx*dx + dvy*dy + dvz*dz
	var piij float64
	if vdotr < 0 {
		hij := 0.5 * (hi + hj)
		cij := 0.5 * (p.C[i] + p.C[j])
		rhoij := 0.5 * (rhoi + rhoj)
		muij := hij * vdotr / (dist*dist + 0.01*hij*hij)
		alphaij := 0.5 * (p.Alpha[i] + p.Alpha[j])
		fj := balsara(p.DivV[j], p.CurlV[j], p.C[j], hj)
		fij := 0.5 * (fi + fj)
		// Pi_ij = f * alpha * (-c mu + beta mu^2) / rho, beta as a
		// multiple of alpha (conventionally 2).
		piij = fij * alphaij * (-cij*muij + avBeta*muij*muij) / rhoij
	}

	mj := p.M[j]
	gradTermI := prhoi * dwi
	gradTermJ := prhoj * dwj
	acc := mj * (gradTermI + gradTermJ + piij*0.5*(dwi+dwj))
	ax = -acc * ex
	ay = -acc * ey
	az = -acc * ez
	// Energy equation: du/dt = P_i/(Ω_i ρ_i²) Σ m_j v_ij·∇W_i + AV heating.
	vdotgrad := (dvx*ex + dvy*ey + dvz*ez)
	du = mj * (gradTermI + 0.5*piij*0.5*(dwi+dwj)) * vdotgrad
	return ax, ay, az, du
}

// balsara computes the Balsara (1995) shear limiter f = |divv| / (|divv| +
// |curlv| + 0.0001 c/h).
func balsara(divv, curlv, c, h float64) float64 {
	ad := math.Abs(divv)
	return ad / (ad + curlv + 1e-4*c/h + 1e-30)
}
