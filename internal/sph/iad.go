package sph

import "math"

// IADVelocityDivCurl computes the Integral Approach to Derivatives tensor
// (García-Senz et al. 2012) and, from it, the velocity divergence and curl
// per particle. The IAD tensor
//
//	tau_i = sum_j V_j (r_j - r_i) ⊗ (r_j - r_i) W_ij
//
// is inverted analytically (symmetric 3x3); its inverse C_i converts kernel
// sums into first derivatives without explicit kernel gradients, which
// improves accuracy on disordered particle distributions. The velocity
// gradient
//
//	g_i = sum_j V_j (v_j - v_i) ⊗ C_i (r_j - r_i) W_ij = D_i · C_i,
//	D_i = sum_j V_j (v_j - v_i) ⊗ (r_j - r_i) W_ij
//
// gives the divergence (its trace) and the curl (its antisymmetric part).
// The closure walk sums g term by term; the pair sweep sums τ and D, which
// need no C, in the same pass and multiplies by C_i once per particle. This
// function is one of the two most compute-intensive kernels in the paper's
// measurements.
func (s *State) IADVelocityDivCurl() {
	if s.useCached() {
		s.iadPairs()
	} else {
		s.iadWalk()
	}
}

// storeIADTensor inverts the accumulated IAD tensor of particle i and
// stores C_i, falling back to an isotropic inverse for degenerate
// neighborhoods (e.g. isolated particles) to keep derivatives bounded. It
// returns what it stored.
func (s *State) storeIADTensor(i int, txx, txy, txz, tyy, tyz, tzz float64) (c11, c12, c13, c22, c23, c33 float64) {
	p := s.P
	c11, c12, c13, c22, c23, c33, ok := invertSym3(txx, txy, txz, tyy, tyz, tzz)
	if !ok {
		iso := 3 / (p.H[i] * p.H[i])
		c11, c22, c33 = iso, iso, iso
		c12, c13, c23 = 0, 0, 0
	}
	p.C11[i], p.C12[i], p.C13[i] = c11, c12, c13
	p.C22[i], p.C23[i], p.C33[i] = c22, c23, c33
	return c11, c12, c13, c22, c23, c33
}

// invertSym3 inverts the symmetric matrix [[xx,xy,xz],[xy,yy,yz],[xz,yz,zz]].
// ok is false when the matrix is (near-)singular.
func invertSym3(xx, xy, xz, yy, yz, zz float64) (c11, c12, c13, c22, c23, c33 float64, ok bool) {
	det := xx*(yy*zz-yz*yz) - xy*(xy*zz-yz*xz) + xz*(xy*yz-yy*xz)
	scale := math.Max(math.Abs(xx), math.Max(math.Abs(yy), math.Abs(zz)))
	if scale == 0 || math.Abs(det) < 1e-12*scale*scale*scale {
		return 0, 0, 0, 0, 0, 0, false
	}
	inv := 1 / det
	c11 = (yy*zz - yz*yz) * inv
	c12 = (xz*yz - xy*zz) * inv
	c13 = (xy*yz - xz*yy) * inv
	c22 = (xx*zz - xz*xz) * inv
	c23 = (xy*xz - xx*yz) * inv
	c33 = (xx*yy - xy*xy) * inv
	return c11, c12, c13, c22, c23, c33, true
}
