package sph

import (
	"math"

	"sphenergy/internal/par"
)

// The production passes stream the pair list: every interacting pair is
// visited exactly once, the shared per-pair terms — distances, artificial
// viscosity, kernel derivatives at both smoothing lengths, the velocity
// differences of the IAD gradient — are computed a single time, and
// contributions go to the endpoints PairSide names: the owner's into the sums
// of its segment, the other's through par.Scatter's per-chunk private
// accumulators. The pair set is the closure walk's (including ngmax
// truncation and one-sided supports); the arithmetic is not quite: besides
// the summation order, the density sweep evaluates the kernel at the
// reciprocal smoothing length (kernel.WDWRelTol) and the IAD gradient is
// summed as D·C (see iadPairs). The passes agree with walk.go to ~1e-14
// relative and are deterministic for a fixed GOMAXPROCS.

// xmassPairs is the fused density sweep — the only production pass that
// touches the kernel. It rounds each particle's 1/h once, then for every
// pair evaluates W and dW/dr at both smoothing lengths through one
// division-free WDW per endpoint, caches the four values for the
// downstream IAD and momentum passes, and accumulates the XMass and
// NormalizationGradh sums together (stride-2 scatter), so the gradh pass
// reduces to its O(n) finalization. The gradh sum of a particle is taken
// as Σ x_j (3 W + r dW/dr) and multiplied by −1/h once, in the
// finalization, where the walk divides every term by h.
func (s *State) xmassPairs() {
	p := s.P
	k := s.Opt.Kernel
	nl := s.List
	n := p.N
	np := int(nl.PairOffsets[n])
	nl.wa = fit(nl.wa, np)
	nl.wb = fit(nl.wb, np)
	nl.dwa = fit(nl.dwa, np)
	nl.dwb = fit(nl.dwb, np)
	nl.invh = ensure(nl.invh, n)
	nl.dsum = ensure(nl.dsum, n)
	wa, wb, dwa, dwb, invh := nl.wa, nl.wb, nl.dwa, nl.dwb, nl.invh
	par.Chunked(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			invh[i] = 1 / p.H[i]
		}
	})
	bufs := s.scat.Run(n, n, 2, func(lo, hi int, acc []float64) {
		for a := lo; a < hi; a++ {
			ia := invh[a]
			xma := p.XM[a]
			sum, dsum := 0.0, 0.0
			for t := nl.PairOffsets[a]; t < nl.PairOffsets[a+1]; t++ {
				b := nl.PairIdx[t]
				d := nl.PairDist[t]
				w1, dw1 := k.WDW(d, ia)
				w2, dw2 := k.WDW(d, invh[b])
				wa[t], dwa[t] = w1, dw1
				wb[t], dwb[t] = w2, dw2
				side := nl.PairSide[t]
				if side&SideOwner != 0 {
					xmb := p.XM[b]
					sum += xmb * w1
					dsum += xmb * (3*w1 + d*dw1)
				}
				if side&SideOther != 0 {
					o := int(b) * 2
					acc[o] += xma * w2
					acc[o+1] += xma * (3*w2 + d*dw2)
				}
			}
			o := a * 2
			acc[o] += sum
			acc[o+1] += dsum
		}
	})
	dsums := nl.dsum
	par.Chunked(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			w0, _ := k.WDW(0, invh[i])
			sum := p.XM[i] * w0
			dsum := 3 * p.XM[i] * w0
			for _, b := range bufs {
				sum += b[2*i]
				dsum += b[2*i+1]
			}
			p.Kx[i] = sum
			p.Rho[i] = sum * p.M[i] / p.XM[i]
			dsums[i] = -dsum * invh[i]
		}
	})
	nl.kernOK = true
}

// gradhPairs finalizes the NormalizationGradh pass from the sums the fused
// XMass sweep accumulated.
func (s *State) gradhPairs() {
	p := s.P
	dsums := s.List.dsum
	par.Chunked(p.N, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			omega := 1 + p.H[i]/(3*p.Kx[i])*dsums[i]
			if omega < 0.2 || math.IsNaN(omega) {
				omega = 0.2
			}
			p.Gradh[i] = omega
		}
	})
}

// iadStride is the scatter slot of the IAD sweep: the six entries of the
// symmetric tensor τ, then the nine of D, row by row (see iadPairs).
const iadStride = 15

// iadPairs is the IAD pass in one sweep over the pair list. Kernel values
// come from the per-pair cache the density sweep filled, and the volume
// elements V = m/ρ are computed once per particle. The walk's gradient
// g_i = Σ_j V_j dv ⊗ (C_i r) W_ij is linear in C_i: g_i = D_i·C_i with
// D_i = Σ_j V_j dv ⊗ r W_ij. The products r_a r_b of τ and dv_a r_b of D are
// the same from both endpoints — r and dv both flip sign — so the sweep
// accumulates τ and D for both (stride iadStride), and the O(n) epilogue
// inverts τ into C, forms g = D·C, and takes the divergence from its trace
// and the curl from its antisymmetric part.
func (s *State) iadPairs() {
	p := s.P
	nl := s.List
	n := p.N
	kwa, kwb := nl.wa, nl.wb
	nl.vol = ensure(nl.vol, n)
	v := nl.vol
	par.Chunked(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i] = p.M[i] / p.Rho[i]
		}
	})

	bufs := s.scat.Run(n, n, iadStride, func(lo, hi int, acc []float64) {
		for a := lo; a < hi; a++ {
			va := v[a]
			vxa, vya, vza := p.VX[a], p.VY[a], p.VZ[a]
			// The owner's sums go straight to its slot, like the other
			// endpoint's: fifteen running sums do not fit in registers, and
			// spilled ones cost more than the slot's loads and stores.
			own := acc[a*iadStride:][:iadStride]
			for t := nl.PairOffsets[a]; t < nl.PairOffsets[a+1]; t++ {
				b := nl.PairIdx[t]
				// r = r_b - r_a = -(dx, dy, dz) and dv = v_b - v_a, from a's
				// side, as iadWalk writes them.
				rx, ry, rz := -nl.PairDx[t], -nl.PairDy[t], -nl.PairDz[t]
				dvx, dvy, dvz := p.VX[b]-vxa, p.VY[b]-vya, p.VZ[b]-vza
				side := nl.PairSide[t]
				if side&SideOwner != 0 {
					w := kwa[t] * v[b]
					wx, wy, wz := rx*w, ry*w, rz*w
					o := own
					o[0] += rx * wx
					o[1] += rx * wy
					o[2] += rx * wz
					o[3] += ry * wy
					o[4] += ry * wz
					o[5] += rz * wz
					o[6] += dvx * wx
					o[7] += dvx * wy
					o[8] += dvx * wz
					o[9] += dvy * wx
					o[10] += dvy * wy
					o[11] += dvy * wz
					o[12] += dvz * wx
					o[13] += dvz * wy
					o[14] += dvz * wz
				}
				if side&SideOther != 0 {
					w := kwb[t] * va
					wx, wy, wz := rx*w, ry*w, rz*w
					o := acc[int(b)*iadStride:][:iadStride]
					o[0] += rx * wx
					o[1] += rx * wy
					o[2] += rx * wz
					o[3] += ry * wy
					o[4] += ry * wz
					o[5] += rz * wz
					o[6] += dvx * wx
					o[7] += dvx * wy
					o[8] += dvx * wz
					o[9] += dvy * wx
					o[10] += dvy * wy
					o[11] += dvy * wz
					o[12] += dvz * wx
					o[13] += dvz * wy
					o[14] += dvz * wz
				}
			}
		}
	})
	par.Chunked(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var m [iadStride]float64
			for _, b := range bufs {
				for k, x := range b[i*iadStride:][:iadStride] {
					m[k] += x
				}
			}
			c11, c12, c13, c22, c23, c33 := s.storeIADTensor(i, m[0], m[1], m[2], m[3], m[4], m[5])
			dxx, dxy, dxz := m[6], m[7], m[8]
			dyx, dyy, dyz := m[9], m[10], m[11]
			dzx, dzy, dzz := m[12], m[13], m[14]
			// g_ab = Σ_k D_ak C_kb; only the trace and the antisymmetric
			// part are consumed.
			gxy := dxx*c12 + dxy*c22 + dxz*c23
			gxz := dxx*c13 + dxy*c23 + dxz*c33
			gyx := dyx*c11 + dyy*c12 + dyz*c13
			gyz := dyx*c13 + dyy*c23 + dyz*c33
			gzx := dzx*c11 + dzy*c12 + dzz*c13
			gzy := dzx*c12 + dzy*c22 + dzz*c23
			p.DivV[i] = (dxx*c11 + dxy*c12 + dxz*c13) + (dyx*c12 + dyy*c22 + dyz*c23) + (dzx*c13 + dzy*c23 + dzz*c33)
			cx, cy, cz := gzy-gyz, gxz-gzx, gyx-gxy
			p.CurlV[i] = math.Sqrt(cx*cx + cy*cy + cz*cz)
		}
	})
}

// momentumPairs is the folded MomentumEnergy pass — where folding pays
// most: the artificial viscosity, both kernel derivatives (cached by the
// fused XMass sweep, no table lookups here) and the symmetrized pressure
// bracket are computed once per pair instead of once per direction, and
// P/(Ω ρ²) and the Balsara factor are hoisted to per-particle
// precomputations (the walk re-derives both for the far particle on every
// visit). The momentum equation integrates a pair from both sides as soon
// as either support covers it, so an endpoint whose side the record does
// not name still takes its share when the pair lies outside its own support
// (dist >= 2·h); inside it, the side is missing only because that
// endpoint's row was truncated at ngmax, and truncated pairs stay dropped.
func (s *State) momentumPairs() {
	p := s.P
	nl := s.List
	n := p.N
	kdwa, kdwb := nl.dwa, nl.dwb
	nl.prho = ensure(nl.prho, n)
	nl.bal = ensure(nl.bal, n)
	prho, f := nl.prho, nl.bal
	par.Chunked(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			rho := p.Rho[i]
			prho[i] = p.P[i] / (p.Gradh[i] * rho * rho)
			f[i] = balsara(p.DivV[i], p.CurlV[i], p.C[i], p.H[i])
		}
	})
	bufs := s.scat.Run(n, n, 4, func(lo, hi int, acc []float64) {
		for a := lo; a < hi; a++ {
			ha := p.H[a]
			var axA, ayA, azA, duA float64
			for t := nl.PairOffsets[a]; t < nl.PairOffsets[a+1]; t++ {
				b := nl.PairIdx[t]
				dx, dy, dz, dist := nl.PairDx[t], nl.PairDy[t], nl.PairDz[t], nl.PairDist[t]
				hb := p.H[b]
				dwa := kdwa[t]
				dwb := kdwb[t]
				invr := 1 / (dist + 1e-30)
				ex, ey, ez := dx*invr, dy*invr, dz*invr
				dvx := p.VX[a] - p.VX[b]
				dvy := p.VY[a] - p.VY[b]
				dvz := p.VZ[a] - p.VZ[b]
				vdotr := dvx*dx + dvy*dy + dvz*dz
				// Viscosity acts on approaching pairs only. Computed
				// without a branch: on a receding pair muij is ±0, so piij
				// is +0 — the bits the walk's untaken branch leaves.
				hij := 0.5 * (ha + hb)
				cij := 0.5 * (p.C[a] + p.C[b])
				rhoij := 0.5 * (p.Rho[a] + p.Rho[b])
				muij := hij * min(vdotr, 0) / (dist*dist + 0.01*hij*hij)
				alphaij := 0.5 * (p.Alpha[a] + p.Alpha[b])
				fij := 0.5 * (f[a] + f[b])
				piij := fij * alphaij * (-cij*muij + avBeta*muij*muij) / rhoij
				gradA := prho[a] * dwa
				gradB := prho[b] * dwb
				avdw := piij * 0.5 * (dwa + dwb)
				bracket := gradA + gradB + avdw
				// vdotgrad and the bracket are invariant under swapping the
				// pair's sides (both dv and e flip sign), so one evaluation
				// serves both endpoints.
				vdotgrad := dvx*ex + dvy*ey + dvz*ez
				side := nl.PairSide[t]
				if side&SideOwner != 0 || dist >= 2*ha {
					accA := p.M[b] * bracket
					axA -= accA * ex
					ayA -= accA * ey
					azA -= accA * ez
					duA += p.M[b] * (gradA + 0.5*avdw) * vdotgrad
				}
				if side&SideOther != 0 || dist >= 2*hb {
					accB := p.M[a] * bracket
					o := int(b) * 4
					acc[o] += accB * ex
					acc[o+1] += accB * ey
					acc[o+2] += accB * ez
					acc[o+3] += p.M[a] * (gradB + 0.5*avdw) * vdotgrad
				}
			}
			o := a * 4
			acc[o] += axA
			acc[o+1] += ayA
			acc[o+2] += azA
			acc[o+3] += duA
		}
	})
	par.Chunked(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			o := i * 4
			var ax, ay, az, du float64
			for _, b := range bufs {
				ax += b[o]
				ay += b[o+1]
				az += b[o+2]
				du += b[o+3]
			}
			p.AX[i] = ax
			p.AY[i] = ay
			p.AZ[i] = az
			p.DU[i] = du
		}
	})
}
