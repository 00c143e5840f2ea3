package sph

import (
	"math"

	"sphenergy/internal/par"
)

// This file holds the closure-walk implementations of the SPH passes: each
// pass re-traverses the neighbor search structure with a per-neighbor
// callback. They are the reference baseline for the neighbor-list pipeline
// (see neighborlist.go) and the fallback when no list has been built — e.g.
// callers that set up Grid manually, or Options.ClosureWalk runs.

func (s *State) xmassWalk() {
	p := s.P
	k := s.Opt.Kernel
	par.For(p.N, func(i int) {
		hi := p.H[i]
		sum := p.XM[i] * k.W(0, hi)
		s.Grid.ForEachNeighbor(i, 2*hi, func(j int, _, _, _, dist float64) {
			sum += p.XM[j] * k.W(dist, hi)
		})
		p.Kx[i] = sum
		p.Rho[i] = sum * p.M[i] / p.XM[i]
	})
}

func (s *State) gradhWalk() {
	p := s.P
	k := s.Opt.Kernel
	par.For(p.N, func(i int) {
		hi := p.H[i]
		// dW/dh = -(3 W + q dW/dq)/h = -(3 W(r,h) + (r/h) * h*DW(r,h))/h.
		dsum := -3 * p.XM[i] * k.W(0, hi) / hi
		s.Grid.ForEachNeighbor(i, 2*hi, func(j int, _, _, _, dist float64) {
			w := k.W(dist, hi)
			dw := k.DW(dist, hi)
			dwdh := -(3*w + dist*dw) / hi
			dsum += p.XM[j] * dwdh
		})
		omega := 1 + hi/(3*p.Kx[i])*dsum
		// Guard against pathological configurations.
		if omega < 0.2 || math.IsNaN(omega) {
			omega = 0.2
		}
		p.Gradh[i] = omega
	})
}

func (s *State) iadWalk() {
	p := s.P
	k := s.Opt.Kernel
	par.For(p.N, func(i int) {
		hi := p.H[i]
		var txx, txy, txz, tyy, tyz, tzz float64
		s.Grid.ForEachNeighbor(i, 2*hi, func(j int, dx, dy, dz, dist float64) {
			// Displacement from i to j is -(dx,dy,dz): ForEachNeighbor passes
			// xi - xj. The outer product is sign-agnostic.
			vj := p.M[j] / p.Rho[j]
			w := k.W(dist, hi) * vj
			txx += dx * dx * w
			txy += dx * dy * w
			txz += dx * dz * w
			tyy += dy * dy * w
			tyz += dy * dz * w
			tzz += dz * dz * w
		})
		s.storeIADTensor(i, txx, txy, txz, tyy, tyz, tzz)
	})

	// Velocity divergence and curl from IAD gradients:
	// dv_a/dx_b = sum_j V_j (v_j - v_i)_a * (C_i (r_j - r_i))_b W_ij.
	par.For(p.N, func(i int) {
		hi := p.H[i]
		var gxx, gxy, gxz, gyx, gyy, gyz, gzx, gzy, gzz float64
		s.Grid.ForEachNeighbor(i, 2*hi, func(j int, dx, dy, dz, dist float64) {
			// r_j - r_i = -(dx, dy, dz).
			rx, ry, rz := -dx, -dy, -dz
			vj := p.M[j] / p.Rho[j]
			w := k.W(dist, hi) * vj
			// A = C_i * r, the IAD gradient direction vector.
			ax := p.C11[i]*rx + p.C12[i]*ry + p.C13[i]*rz
			ay := p.C12[i]*rx + p.C22[i]*ry + p.C23[i]*rz
			az := p.C13[i]*rx + p.C23[i]*ry + p.C33[i]*rz
			dvx := p.VX[j] - p.VX[i]
			dvy := p.VY[j] - p.VY[i]
			dvz := p.VZ[j] - p.VZ[i]
			gxx += dvx * ax * w
			gxy += dvx * ay * w
			gxz += dvx * az * w
			gyx += dvy * ax * w
			gyy += dvy * ay * w
			gyz += dvy * az * w
			gzx += dvz * ax * w
			gzy += dvz * ay * w
			gzz += dvz * az * w
		})
		p.DivV[i] = gxx + gyy + gzz
		cx := gzy - gyz
		cy := gxz - gzx
		cz := gyx - gxy
		p.CurlV[i] = math.Sqrt(cx*cx + cy*cy + cz*cz)
	})
}

func (s *State) momentumWalk() {
	p := s.P
	par.For(p.N, func(i int) {
		hi := p.H[i]
		rhoi := p.Rho[i]
		prhoi := p.P[i] / (p.Gradh[i] * rhoi * rhoi)
		var ax, ay, az, du float64
		// Balsara limiter for particle i.
		fi := balsara(p.DivV[i], p.CurlV[i], p.C[i], hi)
		// Scan out to the symmetrized support 2*max(h_i, h_j); using the
		// global max h keeps the query radius valid for the built grid.
		scanR := 2 * math.Max(hi, s.MaxH)
		s.Grid.ForEachNeighbor(i, scanR, func(j int, dx, dy, dz, dist float64) {
			if dist >= 2*hi && dist >= 2*p.H[j] {
				return
			}
			dax, day, daz, ddu := s.momentumPair(i, j, hi, prhoi, fi, dx, dy, dz, dist)
			ax += dax
			ay += day
			az += daz
			du += ddu
		})
		p.AX[i] = ax
		p.AY[i] = ay
		p.AZ[i] = az
		p.DU[i] = du
	})
}
