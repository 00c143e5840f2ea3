package sph

import (
	"math"

	"sphenergy/internal/neighbors"
	"sphenergy/internal/par"
)

// FindNeighbors adapts smoothing lengths toward the target neighbor count
// using the standard n^(1/3) update and brings the neighbor structure up to
// date with the current positions. On the production path that is the
// pair list (see NeighborList) the subsequent passes stream over:
// refreshed from the cached Verlet-skin candidates while they still cover
// every support sphere, rebuilt from a fresh search grid otherwise. With
// Options.ClosureWalk set, only the grid, the neighbor counts and the
// smoothing lengths are updated and the passes re-traverse the grid.
func (s *State) FindNeighbors() {
	maxH := s.P.MaxH()
	if s.Opt.ClosureWalk {
		p := s.P
		s.Grid = s.buildGrid(p.X, p.Y, p.Z, 2*maxH*hGrowthCap) // allow for the in-step h growth clamp
		s.List = nil
		s.countAndUpdateH(maxH)
		return
	}
	kind, maxDrift := s.rebuildCause(maxH)
	if kind == "" {
		newMax, abort := s.buildList(maxH, maxDrift, false)
		if abort == "" {
			s.NbrStats.Refreshes++
			s.MaxH = newMax
			s.neighborEvent("refresh")
			return
		}
		kind = abort
	}
	s.MaxH, _ = s.buildList(maxH, 0, true)
	s.NbrStats.Rebuilds++
	switch kind {
	case "init":
		s.NbrStats.RebuildInit++
	case "cadence":
		s.NbrStats.RebuildCadence++
	case "drift":
		s.NbrStats.RebuildDrift++
	case "overflow":
		s.NbrStats.RebuildOverflow++
	}
	s.neighborEvent(kind)
}

// neighborEvent forwards a FindNeighbors outcome to the configured hook.
func (s *State) neighborEvent(kind string) {
	if s.Opt.NeighborEvent != nil {
		s.Opt.NeighborEvent(s.Step, kind)
	}
}

// countAndUpdateH is the closure-walk neighbor pass: count neighbors at the
// current support, apply the smoothing-length update, and fold the
// post-update maximum into the same parallel pass.
func (s *State) countAndUpdateH(maxH float64) {
	p := s.P
	ng := float64(s.Opt.NgTarget)
	s.MaxH = par.Reduce(p.N, func(lo, hi int) float64 {
		localMax := 0.0
		for i := lo; i < hi; i++ {
			n := s.Grid.CountNeighbors(i, 2*p.H[i])
			p.NC[i] = int32(n)
			h := updateH(p.H[i], n, ng, maxH)
			p.H[i] = h
			if h > localMax {
				localMax = h
			}
		}
		return localMax
	}, math.Max)
}

// buildGrid constructs the search grid over the given coordinate slices. It
// reuses the state's grid buffers, so steady-state rebuilds allocate nothing.
func (s *State) buildGrid(x, y, z []float64, radius float64) *neighbors.Grid {
	if radius <= 0 {
		radius = s.Opt.Box.MinExtent() / 4
	}
	s.gridBuf = neighbors.BuildGridInto(s.gridBuf, s.Opt.Box, x, y, z, radius)
	return s.gridBuf
}

// useList reports whether XMass streams the pair list. Without one —
// closure-walk runs, a state just read from a checkpoint, which carries the
// skin references only, or just reordered — the passes walk the grid.
func (s *State) useList() bool { return s.streamsList(false) }

// useCached is useList for the passes after XMass, which read the per-pair
// kernel values (and gradh sums) its sweep over this list left behind.
func (s *State) useCached() bool { return s.streamsList(true) }

// streamsList decides for one pair pass; on the production path a pass that
// has to walk is counted (NeighborStats.WalkFallbacks).
func (s *State) streamsList(swept bool) bool {
	if s.Opt.ClosureWalk {
		return false
	}
	if nl := s.List; nl != nil && len(nl.PairOffsets) == s.P.N+1 && (nl.kernOK || !swept) {
		return true
	}
	s.NbrStats.WalkFallbacks++
	return false
}

// XMass computes the generalized volume-element normalization
// kx_i = sum_j x_j W_ij(h_i) (including the self contribution), where
// x_i = m_i for standard SPH (VEExponent = 0). The density estimate is
// rho_i = kx_i * m_i / x_i.
//
// This is the first of the two density-like passes of SPH-EXA's pipeline
// ("computeXMass" in the original framework).
func (s *State) XMass() {
	p := s.P
	// Volume element mass: with exponent p>0 this uses the previous step's
	// density, which is the standard VE iteration.
	par.For(p.N, func(i int) {
		xm := p.M[i]
		if s.Opt.VEExponent > 0 && p.Rho[i] > 0 {
			xm = p.M[i] * math.Pow(p.M[i]/p.Rho[i], s.Opt.VEExponent)
		}
		p.XM[i] = xm
	})
	if s.useList() {
		s.xmassPairs()
	} else {
		s.xmassWalk()
	}
}

// NormalizationGradh computes the gradh (Omega) correction factors
// Omega_i = 1 + (h_i / (3 kx_i)) * sum_j x_j dW/dh_ij, which appear in the
// momentum and energy equations of the variable-smoothing-length
// formulation. ("computeVeDefGradh" in SPH-EXA.)
func (s *State) NormalizationGradh() {
	if s.useCached() {
		s.gradhPairs()
	} else {
		s.gradhWalk()
	}
}

// EquationOfState evaluates pressure and sound speed from density and
// internal energy for every particle.
func (s *State) EquationOfState() {
	p := s.P
	eos := s.Opt.EOS
	par.For(p.N, func(i int) {
		p.P[i], p.C[i] = eos.PressureSoundSpeed(p.Rho[i], p.U[i])
	})
}

// UpdateQuantities advances positions, velocities and internal energy by one
// timestep using a kick-drift scheme with the freshly computed accelerations
// and du/dt, then wraps positions into the (possibly periodic) box.
// ("UpdateQuantities" in SPH-EXA's main loop.)
func (s *State) UpdateQuantities(dt float64) {
	p := s.P
	box := s.Opt.Box
	par.For(p.N, func(i int) {
		p.VX[i] += p.AX[i] * dt
		p.VY[i] += p.AY[i] * dt
		p.VZ[i] += p.AZ[i] * dt
		p.X[i] += p.VX[i] * dt
		p.Y[i] += p.VY[i] * dt
		p.Z[i] += p.VZ[i] * dt
		p.X[i], p.Y[i], p.Z[i] = box.Wrap(p.X[i], p.Y[i], p.Z[i])
		p.U[i] += p.DU[i] * dt
		if p.U[i] < 1e-12 {
			p.U[i] = 1e-12
		}
	})
	s.Time += dt
	s.Step++
}
