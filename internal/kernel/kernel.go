// Package kernel implements the smoothing kernel used by the SPH solver:
// the Wendland C2 kernel in three dimensions with compact support of 2h.
//
// The Kernel interface exposes the normalized value W(r, h) and the radial
// derivative dW/dr, and both together for the reciprocal smoothing length
// (WDW), which hot loops call without a division. For performance-critical
// loops a tabulated variant with linear interpolation is provided; its
// accuracy is validated in the tests against the analytic forms.
package kernel

import (
	"fmt"
	"math"
)

// Kernel is a 3-D SPH smoothing kernel with compact support radius 2h.
type Kernel interface {
	// Name identifies the kernel in reports.
	Name() string
	// W evaluates the kernel at distance r for smoothing length h.
	W(r, h float64) float64
	// DW evaluates dW/dr at distance r for smoothing length h.
	DW(r, h float64) float64
	// WDW evaluates W and dW/dr together at distance r for the reciprocal
	// smoothing length invH = 1/h, with no division: q = r·invH, and the
	// normalizations are powers of invH. A caller that rounds 1/h once per
	// particle gets W and DW to within WDWRelTol of the peak.
	WDW(r, invH float64) (w, dw float64)
	// SupportRadius returns the compact support in units of h (always 2 here).
	SupportRadius() float64
}

// WDWRelTol bounds how far WDW(r, 1/h) may lie from W(r, h) and DW(r, h),
// relative to the peak magnitude of each at that h: the few roundings by
// which q = r·(1/h) and the powers of 1/h differ from r/h and 1/h³, 1/h⁴
// (≤ 7.6e-16 measured, on both kernels).
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

// Name implements Kernel.
func (WendlandC2) Name() string { return "wendland-c2" }

// SupportRadius implements Kernel.
func (WendlandC2) SupportRadius() float64 { return 2 }

const wc2Sigma = 21 / (16 * math.Pi)

// W implements Kernel.
func (WendlandC2) W(r, h float64) float64 {
	q, norm, ok := normalizedEval(r, h)
	if !ok {
		return 0
	}
	u := 1 - q/2
	u2 := u * u
	return wc2Sigma * norm * u2 * u2 * (2*q + 1)
}

// DW implements Kernel.
func (WendlandC2) DW(r, h float64) float64 {
	q, norm, ok := normalizedEval(r, h)
	if !ok {
		return 0
	}
	u := 1 - q/2
	return wc2Sigma * norm / h * (-5 * q * u * u * u)
}

// WDW implements Kernel.
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

// Table is a tabulated kernel with linear interpolation, trading a small
// accuracy loss for branch-free evaluation in hot loops.
type Table struct {
	base   Kernel
	w, dw  []float64
	invDq  float64
	points int
}

// NewTable tabulates base over q in [0, 2] with the given number of points
// (>= 2).
func NewTable(base Kernel, points int) *Table {
	if points < 2 {
		panic("kernel: table needs at least 2 points")
	}
	t := &Table{base: base, points: points}
	t.w = make([]float64, points+1)
	t.dw = make([]float64, points+1)
	dq := 2.0 / float64(points)
	t.invDq = 1 / dq
	for i := 0; i <= points; i++ {
		q := float64(i) * dq
		// Tabulate at h=1; W(r,h) = W1(q)/h³, DW(r,h) = DW1(q)/h⁴.
		t.w[i] = base.W(q, 1)
		t.dw[i] = base.DW(q, 1)
	}
	return t
}

// Name implements Kernel.
func (t *Table) Name() string { return t.base.Name() + "-table" }

// SupportRadius implements Kernel.
func (t *Table) SupportRadius() float64 { return 2 }

func (t *Table) lookup(tab []float64, q float64) float64 {
	if q >= 2 || q < 0 {
		return 0
	}
	f := q * t.invDq
	i := int(f)
	if i >= t.points {
		return 0
	}
	frac := f - float64(i)
	return tab[i]*(1-frac) + tab[i+1]*frac
}

// W implements Kernel.
func (t *Table) W(r, h float64) float64 {
	if h <= 0 {
		return 0
	}
	return t.lookup(t.w, r/h) / (h * h * h)
}

// DW implements Kernel.
func (t *Table) DW(r, h float64) float64 {
	if h <= 0 {
		return 0
	}
	return t.lookup(t.dw, r/h) / (h * h * h * h)
}

// WDW implements Kernel: one q and one interpolation index serve both
// tables.
func (t *Table) WDW(r, invH float64) (w, dw float64) {
	q := r * invH
	if !inSupport(q, invH) {
		return 0, 0
	}
	f := q * t.invDq
	i := int(f)
	if i >= t.points {
		return 0, 0
	}
	frac := f - float64(i)
	h3 := invH * invH * invH
	w = (t.w[i]*(1-frac) + t.w[i+1]*frac) * h3
	dw = (t.dw[i]*(1-frac) + t.dw[i+1]*frac) * (h3 * invH)
	return w, dw
}

// MaxRelError returns the maximum interpolation error of the table's W and
// DW against the analytic base kernel, sampled at the bin midpoints (the
// worst case for linear interpolation) and normalized by the respective
// peak magnitude so near-zero tails don't inflate the ratio.
func (t *Table) MaxRelError() (wErr, dwErr float64) {
	dq := 2.0 / float64(t.points)
	var wScale, dwScale, wMax, dwMax float64
	for i := 0; i < t.points; i++ {
		q := (float64(i) + 0.5) * dq
		w := t.base.W(q, 1)
		dw := t.base.DW(q, 1)
		if v := math.Abs(w); v > wScale {
			wScale = v
		}
		if v := math.Abs(dw); v > dwScale {
			dwScale = v
		}
		if d := math.Abs(t.W(q, 1) - w); d > wMax {
			wMax = d
		}
		if d := math.Abs(t.DW(q, 1) - dw); d > dwMax {
			dwMax = d
		}
	}
	if v := math.Abs(t.base.W(0, 1)); v > wScale {
		wScale = v
	}
	if wScale > 0 {
		wErr = wMax / wScale
	}
	if dwScale > 0 {
		dwErr = dwMax / dwScale
	}
	return wErr, dwErr
}

// TableRelTol is the documented accuracy contract of checked tables: at
// DefaultTablePoints resolution, linear interpolation stays within this
// relative error of the analytic kernel (relative to the peak magnitude of
// W and DW respectively).
const TableRelTol = 5e-6

// DefaultTablePoints is the table resolution used by the solver defaults.
const DefaultTablePoints = 2000

// NewCheckedTable tabulates base and enforces the TableRelTol accuracy
// gate, panicking when the resolution misses it — a misconfigured table
// fails loudly at startup instead of silently degrading the physics.
func NewCheckedTable(base Kernel, points int) *Table {
	t := NewTable(base, points)
	if wErr, dwErr := t.MaxRelError(); wErr > TableRelTol || dwErr > TableRelTol {
		panic(fmt.Sprintf("kernel: %s table with %d points misses accuracy gate: wErr=%.3g dwErr=%.3g > %g",
			base.Name(), points, wErr, dwErr, TableRelTol))
	}
	return t
}
