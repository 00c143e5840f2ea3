package sph

import (
	"math"

	"sphenergy/internal/kernel"
	"sphenergy/internal/par"
)

// The production passes stream the pair list: every interacting pair is
// visited exactly once, the shared per-pair terms — distances, artificial
// viscosity, kernel derivatives at both smoothing lengths — are computed a
// single time, and contributions go to the endpoints PairSide names: the
// owner's into the sums of its segment, the other's through par.Scatter's
// per-worker private accumulators. The pair set and the per-contribution
// arithmetic are the closure walk's (including ngmax truncation and
// one-sided supports), so the only deviation from walk.go is float
// summation order: ~1e-15 relative, deterministic for a fixed GOMAXPROCS.

// wdwFunc returns a combined W/DW evaluator for k, using the kernel's
// fused table lookup (kernel.PairEvaluator) when it has one; the fallback
// calls W and DW separately, producing the same values.
func wdwFunc(k kernel.Kernel) func(r, h float64) (float64, float64) {
	if pe, ok := k.(kernel.PairEvaluator); ok {
		return pe.WDW
	}
	return func(r, h float64) (float64, float64) {
		return k.W(r, h), k.DW(r, h)
	}
}

// xmassPairs is the fused density sweep — the only production pass that
// touches the kernel tables. For every pair it evaluates W and dW/dr at
// both smoothing lengths through one fused lookup per endpoint, caches the
// four values for the downstream IAD and momentum passes, and accumulates
// the XMass and NormalizationGradh sums together (stride-2 scatter), so
// the gradh pass reduces to its O(n) finalization. Each contribution is
// float-identical to the walk's per-direction arithmetic; only summation
// order differs.
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
	nl.dsum = ensure(nl.dsum, n)
	wa, wb, dwa, dwb := nl.wa, nl.wb, nl.dwa, nl.dwb
	wdw := wdwFunc(k)
	bufs := s.scat.Run(n, n, 2, func(lo, hi int, acc []float64) {
		for a := lo; a < hi; a++ {
			ha := p.H[a]
			xma := p.XM[a]
			sum, dsum := 0.0, 0.0
			for t := nl.PairOffsets[a]; t < nl.PairOffsets[a+1]; t++ {
				b := nl.PairIdx[t]
				d := nl.PairDist[t]
				hb := p.H[b]
				w1, dw1 := wdw(d, ha)
				w2, dw2 := wdw(d, hb)
				wa[t], dwa[t] = w1, dw1
				wb[t], dwb[t] = w2, dw2
				side := nl.PairSide[t]
				if side&SideOwner != 0 {
					xmb := p.XM[b]
					sum += xmb * w1
					dsum += xmb * (-(3*w1 + d*dw1) / ha)
				}
				if side&SideOther != 0 {
					o := int(b) * 2
					acc[o] += xma * w2
					acc[o+1] += xma * (-(3*w2 + d*dw2) / hb)
				}
			}
			o := a * 2
			acc[o] += sum
			acc[o+1] += dsum
		}
	})
	dsums := nl.dsum
	par.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			h := p.H[i]
			w0 := k.W(0, h)
			sum := p.XM[i] * w0
			dsum := -3 * p.XM[i] * w0 / h
			for _, b := range bufs {
				sum += b[2*i]
				dsum += b[2*i+1]
			}
			p.Kx[i] = sum
			p.Rho[i] = sum * p.M[i] / p.XM[i]
			dsums[i] = dsum
		}
	})
	nl.kernOK = true
}

// gradhPairs finalizes the NormalizationGradh pass from the sums the fused
// XMass sweep accumulated.
func (s *State) gradhPairs() {
	p := s.P
	dsums := s.List.dsum
	par.ForChunked(p.N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			omega := 1 + p.H[i]/(3*p.Kx[i])*dsums[i]
			if omega < 0.2 || math.IsNaN(omega) {
				omega = 0.2
			}
			p.Gradh[i] = omega
		}
	})
}

// iadPairs is the folded IAD pass: kernel values come from the per-pair
// cache filled by the fused XMass sweep (no table lookups here), the
// tensor loop shares the six dyadic products (dx·dx … dz·dz) between the
// two endpoints and reads precomputed volume elements V = m/ρ instead of
// dividing per pair, and the gradient loop accumulates the divergence and
// the three curl components directly (4 accumulator slots instead of the
// 9 g-tensor entries — only those four combinations are ever consumed).
func (s *State) iadPairs() {
	p := s.P
	nl := s.List
	n := p.N
	kwa, kwb := nl.wa, nl.wb
	nl.vol = ensure(nl.vol, n)
	v := nl.vol
	par.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i] = p.M[i] / p.Rho[i]
		}
	})

	bufs := s.scat.Run(n, n, 6, func(lo, hi int, acc []float64) {
		for a := lo; a < hi; a++ {
			va := v[a]
			var txx, txy, txz, tyy, tyz, tzz float64
			for t := nl.PairOffsets[a]; t < nl.PairOffsets[a+1]; t++ {
				b := nl.PairIdx[t]
				dx, dy, dz := nl.PairDx[t], nl.PairDy[t], nl.PairDz[t]
				xx, xy, xz := dx*dx, dx*dy, dx*dz
				yy, yz, zz := dy*dy, dy*dz, dz*dz
				side := nl.PairSide[t]
				if side&SideOwner != 0 {
					wa := kwa[t] * v[b]
					txx += xx * wa
					txy += xy * wa
					txz += xz * wa
					tyy += yy * wa
					tyz += yz * wa
					tzz += zz * wa
				}
				if side&SideOther != 0 {
					wb := kwb[t] * va
					o := int(b) * 6
					acc[o] += xx * wb
					acc[o+1] += xy * wb
					acc[o+2] += xz * wb
					acc[o+3] += yy * wb
					acc[o+4] += yz * wb
					acc[o+5] += zz * wb
				}
			}
			o := a * 6
			acc[o] += txx
			acc[o+1] += txy
			acc[o+2] += txz
			acc[o+3] += tyy
			acc[o+4] += tyz
			acc[o+5] += tzz
		}
	})
	par.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o := i * 6
			var t6 [6]float64
			for _, b := range bufs {
				t6[0] += b[o]
				t6[1] += b[o+1]
				t6[2] += b[o+2]
				t6[3] += b[o+3]
				t6[4] += b[o+4]
				t6[5] += b[o+5]
			}
			s.storeIADTensor(i, t6[0], t6[1], t6[2], t6[3], t6[4], t6[5])
		}
	})

	bufs = s.scat.Run(n, n, 4, func(lo, hi int, acc []float64) {
		for a := lo; a < hi; a++ {
			va := v[a]
			c11a, c12a, c13a := p.C11[a], p.C12[a], p.C13[a]
			c22a, c23a, c33a := p.C22[a], p.C23[a], p.C33[a]
			var divA, cxA, cyA, czA float64
			for t := nl.PairOffsets[a]; t < nl.PairOffsets[a+1]; t++ {
				b := nl.PairIdx[t]
				// r_b - r_a = -(dx, dy, dz); dv = v_b - v_a, both from a's
				// side, exactly as iadWalk writes them.
				rx, ry, rz := -nl.PairDx[t], -nl.PairDy[t], -nl.PairDz[t]
				dvx := p.VX[b] - p.VX[a]
				dvy := p.VY[b] - p.VY[a]
				dvz := p.VZ[b] - p.VZ[a]
				side := nl.PairSide[t]
				if side&SideOwner != 0 {
					wa := kwa[t] * v[b]
					ax := c11a*rx + c12a*ry + c13a*rz
					ay := c12a*rx + c22a*ry + c23a*rz
					az := c13a*rx + c23a*ry + c33a*rz
					divA += (dvx*ax + dvy*ay + dvz*az) * wa
					cxA += (dvz*ay - dvy*az) * wa
					cyA += (dvx*az - dvz*ax) * wa
					czA += (dvy*ax - dvx*ay) * wa
				}
				if side&SideOther != 0 {
					// From b's side every factor flips sign: r_a - r_b =
					// +(dx,dy,dz) and dv_b = -dv, so div and curl keep the
					// same formulas with b's tensor A_b = C_b·(dx,dy,dz).
					wb := kwb[t] * va
					bx := p.C11[b]*rx + p.C12[b]*ry + p.C13[b]*rz
					by := p.C12[b]*rx + p.C22[b]*ry + p.C23[b]*rz
					bz := p.C13[b]*rx + p.C23[b]*ry + p.C33[b]*rz
					o := int(b) * 4
					acc[o] += (dvx*bx + dvy*by + dvz*bz) * wb
					acc[o+1] += (dvz*by - dvy*bz) * wb
					acc[o+2] += (dvx*bz - dvz*bx) * wb
					acc[o+3] += (dvy*bx - dvx*by) * wb
				}
			}
			o := a * 4
			acc[o] += divA
			acc[o+1] += cxA
			acc[o+2] += cyA
			acc[o+3] += czA
		}
	})
	par.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o := i * 4
			var div, cx, cy, cz float64
			for _, b := range bufs {
				div += b[o]
				cx += b[o+1]
				cy += b[o+2]
				cz += b[o+3]
			}
			p.DivV[i] = div
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
	par.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rho := p.Rho[i]
			prho[i] = p.P[i] / (p.Gradh[i] * rho * rho)
			f[i] = balsara(p.DivV[i], p.CurlV[i], p.C[i], p.H[i])
		}
	})
	avBeta := s.Opt.AVBeta
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
	par.ForChunked(n, func(lo, hi int) {
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
