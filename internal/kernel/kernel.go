// Package kernel implements the smoothing kernel of the SPH solver: the
// Wendland C2 kernel in three dimensions with compact support of 2h, in
// closed form.
//
// WendlandC2 gives the normalized value W(r, h), the radial derivative
// dW/dr, and both together for the reciprocal smoothing length (WDW), which
// hot loops call without a division. It is a concrete type with no state, so
// every call is direct and the compiler can inline it.
package kernel

import "math"

// WDWRelTol bounds how far WDW(r, 1/h) may lie from W(r, h) and DW(r, h),
// relative to the peak magnitude of each at that h: the few roundings by
// which q = r·(1/h) and the powers of 1/h differ from r/h and 1/h³, 1/h⁴
// (≤ 7.6e-16 measured).
const WDWRelTol = 4e-15

// inSupport reports whether q = r·invH lies in the support [0, 2) of a
// positive smoothing length; NaN (r = 0 at h = 0) does not.
func inSupport(q, invH float64) bool { return q >= 0 && q < 2 && invH > 0 }

// normalizedEval maps (r, h) to the dimensionless q = r/h and the 1/h³
// normalization, handling out-of-support distances.
func normalizedEval(r, h float64) (q, norm float64, ok bool) {
	if h <= 0 {
		return 0, 0, false
	}
	q = r / h
	if q >= 2 {
		return q, 0, false
	}
	return q, 1 / (h * h * h), true
}

// WendlandC2 is the Wendland C2 kernel (Dehnen & Aly 2012 normalization for
// support 2h).
type WendlandC2 struct{}

// SupportRadius returns the compact support in units of h.
func (WendlandC2) SupportRadius() float64 { return 2 }

const wc2Sigma = 21 / (16 * math.Pi)

// W evaluates the kernel at distance r for smoothing length h.
func (WendlandC2) W(r, h float64) float64 {
	q, norm, ok := normalizedEval(r, h)
	if !ok {
		return 0
	}
	u := 1 - q/2
	u2 := u * u
	return wc2Sigma * norm * u2 * u2 * (2*q + 1)
}

// DW evaluates dW/dr at distance r for smoothing length h.
func (WendlandC2) DW(r, h float64) float64 {
	q, norm, ok := normalizedEval(r, h)
	if !ok {
		return 0
	}
	u := 1 - q/2
	return wc2Sigma * norm / h * (-5 * q * u * u * u)
}

// WDW evaluates W and dW/dr together at distance r for the reciprocal
// smoothing length invH = 1/h, with no division: q = r·invH, and the
// normalizations are powers of invH. A caller that rounds 1/h once per
// particle gets W and DW to within WDWRelTol of the peak.
func (WendlandC2) WDW(r, invH float64) (w, dw float64) {
	q := r * invH
	if !inSupport(q, invH) {
		return 0, 0
	}
	u := 1 - q/2
	u3 := u * u * u
	norm := wc2Sigma * (invH * invH * invH)
	return norm * u3 * u * (2*q + 1), norm * invH * (-5 * q * u3)
}
