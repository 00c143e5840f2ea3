package sph

import (
	"math"
	"time"

	"sphenergy/internal/par"
)

// Pipeline pass names, in RunStep execution order. PassGravity only runs
// when an extraAccel closure is supplied (Evrard self-gravity).
const (
	PassFindNeighbors  = "find_neighbors"
	PassXMass          = "xmass"
	PassGradh          = "gradh"
	PassEOS            = "eos"
	PassIAD            = "iad"
	PassAVSwitches     = "av_switches"
	PassMomentumEnergy = "momentum_energy"
	PassGravity        = "gravity"
	PassTimestep       = "timestep"
	PassUpdate         = "update"
)

// PassNames lists the passes every RunStep executes, in order (excluding
// the optional PassGravity). Benchmarks and per-pass metrics key on these.
var PassNames = []string{
	PassFindNeighbors, PassXMass, PassGradh, PassEOS, PassIAD,
	PassAVSwitches, PassMomentumEnergy, PassTimestep, PassUpdate,
}

// pass runs one pipeline pass, timing it for PassHook when one is set.
func (s *State) pass(name string, fn func()) {
	h := s.Opt.PassHook
	if h == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	h(name, time.Since(t0).Seconds())
}

// Timestep computes the next CFL-limited timestep:
//
//	dt = CFL * min_i h_i / (c_i + 1.2 alpha_i c_i)
//
// combined with an acceleration criterion sqrt(h_i/|a_i|). Growth relative
// to the previous step is bounded by maxDtGrowth. This corresponds to the
// paper's Timestep function, which ends each iteration with a collective
// reduction across ranks.
func (s *State) Timestep() float64 {
	p := s.P
	dt := par.MinFloat64(p.N, func(i int) float64 {
		signal := p.C[i] * (1 + 1.2*p.Alpha[i])
		dtc := math.Inf(1)
		if signal > 0 {
			dtc = cfl * p.H[i] / signal
		}
		a := math.Sqrt(p.AX[i]*p.AX[i] + p.AY[i]*p.AY[i] + p.AZ[i]*p.AZ[i])
		if a > 0 {
			dta := cfl * math.Sqrt(p.H[i]/a)
			if dta < dtc {
				return dta
			}
		}
		return dtc
	})
	if math.IsInf(dt, 1) || dt <= 0 {
		if s.Dt > 0 {
			dt = s.Dt
		} else {
			dt = 1e-6
		}
	}
	if max := s.Dt * maxDtGrowth; s.Dt > 0 && dt > max {
		dt = max
	}
	s.Dt = dt
	return dt
}

// RunStep advances the simulation by one full pipeline iteration in SPH-EXA's
// order: FindNeighbors, XMass, NormalizationGradh, EquationOfState,
// IADVelocityDivCurl, AVSwitches, MomentumEnergy, optional extra
// accelerations (self-gravity), Timestep, UpdateQuantities. extraAccel, if
// non-nil, runs after MomentumEnergy and must add into AX/AY/AZ. Returns
// the timestep taken. Once Options.ReorderEvery steps have passed since the
// last SFC reorder the particles are re-sorted along the Morton curve (see
// ReorderBySFC) on the next step whose neighbor candidates rebuild anyway
// (at the latest after 2×ReorderEvery steps); the decision depends only on
// checkpointed state, so restarts replay the same reorder steps.
func (s *State) RunStep(extraAccel func(p *Particles)) float64 {
	if k := s.Opt.ReorderEvery; k > 0 && s.Step > 0 {
		// Keyed to the rebuild trigger: reordering invalidates the cached
		// Verlet-skin candidate list, so once the cadence expires the
		// reorder piggybacks on a step that rebuilds anyway, and is forced
		// at 2K so the layout cannot go permanently stale. A closure-walk
		// run has no list and reorders exactly every K steps.
		since := s.Step - s.LastReorderStep
		if since >= k {
			if kind, _ := s.rebuildCause(s.P.MaxH()); since >= 2*k || kind != "" {
				s.ReorderBySFC()
				s.LastReorderStep = s.Step
			}
		}
	}
	s.pass(PassFindNeighbors, s.FindNeighbors)
	s.pass(PassXMass, s.XMass)
	s.pass(PassGradh, s.NormalizationGradh)
	s.pass(PassEOS, s.EquationOfState)
	s.pass(PassIAD, s.IADVelocityDivCurl)
	s.pass(PassAVSwitches, func() { s.AVSwitches(s.Dt) })
	s.pass(PassMomentumEnergy, s.MomentumEnergy)
	if extraAccel != nil {
		s.pass(PassGravity, func() { extraAccel(s.P) })
	}
	var dt float64
	s.pass(PassTimestep, func() { dt = s.Timestep() })
	s.pass(PassUpdate, func() { s.UpdateQuantities(dt) })
	return dt
}

// Energies summarizes the conserved quantities of the particle system:
// kinetic, internal, and (if enabled via pot) potential energy, plus the
// total linear momentum magnitude.
type Energies struct {
	Kinetic, Internal, Potential float64
	MomX, MomY, MomZ             float64
	Mass                         float64
}

// Total returns the total energy.
func (e Energies) Total() float64 { return e.Kinetic + e.Internal + e.Potential }

// ComputeEnergies evaluates the energy/momentum diagnostics. pot, if
// non-nil, supplies per-particle potential energy (from the gravity module).
func (s *State) ComputeEnergies(pot []float64) Energies {
	p := s.P
	var e Energies
	for i := 0; i < p.N; i++ {
		v2 := p.VX[i]*p.VX[i] + p.VY[i]*p.VY[i] + p.VZ[i]*p.VZ[i]
		e.Kinetic += 0.5 * p.M[i] * v2
		e.Internal += p.M[i] * p.U[i]
		if pot != nil {
			e.Potential += 0.5 * p.M[i] * pot[i] // pairwise potential counted once
		}
		e.MomX += p.M[i] * p.VX[i]
		e.MomY += p.M[i] * p.VY[i]
		e.MomZ += p.M[i] * p.VZ[i]
		e.Mass += p.M[i]
	}
	return e
}
