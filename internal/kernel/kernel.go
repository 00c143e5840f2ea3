// Package kernel implements the smoothing kernels used by the SPH solver:
// the cubic B-spline, the Wendland C2 and C6 kernels, and the sinc-family
// kernel used by SPH-EXA (Cabezón et al.), all in three dimensions with
// compact support of 2h.
//
// The Kernel interface exposes the normalized value W(r, h) and the radial
// derivative dW/dr. For performance-critical loops a tabulated variant with
// linear interpolation is provided; its accuracy is validated in the tests
// against the analytic forms.
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
	// SupportRadius returns the compact support in units of h (always 2 here).
	SupportRadius() float64
}

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

// CubicSpline is the classic M4 cubic B-spline kernel.
type CubicSpline struct{}

// Name implements Kernel.
func (CubicSpline) Name() string { return "cubic-spline" }

// SupportRadius implements Kernel.
func (CubicSpline) SupportRadius() float64 { return 2 }

const cubicSigma = 1 / math.Pi

// W implements Kernel.
func (CubicSpline) W(r, h float64) float64 {
	q, norm, ok := normalizedEval(r, h)
	if !ok {
		return 0
	}
	var w float64
	if q < 1 {
		w = 1 - 1.5*q*q*(1-q/2)
	} else {
		d := 2 - q
		w = 0.25 * d * d * d
	}
	return cubicSigma * norm * w
}

// DW implements Kernel.
func (CubicSpline) DW(r, h float64) float64 {
	q, norm, ok := normalizedEval(r, h)
	if !ok {
		return 0
	}
	var dw float64
	if q < 1 {
		dw = -3*q + 2.25*q*q
	} else {
		d := 2 - q
		dw = -0.75 * d * d
	}
	return cubicSigma * norm / h * dw
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

// WendlandC6 is the Wendland C6 kernel, the smoother default for large
// neighbor counts.
type WendlandC6 struct{}

// Name implements Kernel.
func (WendlandC6) Name() string { return "wendland-c6" }

// SupportRadius implements Kernel.
func (WendlandC6) SupportRadius() float64 { return 2 }

const wc6Sigma = 1365 / (512 * math.Pi)

// W implements Kernel.
func (WendlandC6) W(r, h float64) float64 {
	q, norm, ok := normalizedEval(r, h)
	if !ok {
		return 0
	}
	u := 1 - q/2
	u2 := u * u
	u4 := u2 * u2
	u8 := u4 * u4
	poly := 1 + 4*q + 6.25*q*q + 4*q*q*q
	return wc6Sigma * norm * u8 * poly
}

// DW implements Kernel.
func (WendlandC6) DW(r, h float64) float64 {
	q, norm, ok := normalizedEval(r, h)
	if !ok {
		return 0
	}
	u := 1 - q/2
	u2 := u * u
	u4 := u2 * u2
	u7 := u4 * u2 * u
	// d/dq [u^8 * poly] with u = 1 - q/2:
	// = u^7 * (-4*poly + u*dpoly)
	poly := 1 + 4*q + 6.25*q*q + 4*q*q*q
	dpoly := 4 + 12.5*q + 12*q*q
	return wc6Sigma * norm / h * u7 * (u*dpoly - 4*poly)
}

// Sinc is the sinc-family kernel S_n(q) = sigma_n * (sin(pi q / 2)/(pi q / 2))^n
// used by SPH-EXA; n is typically 5 or 6. The normalization constant is
// computed numerically at construction.
type Sinc struct {
	n     float64
	sigma float64
}

// NewSinc constructs a sinc kernel of exponent n (n >= 3 recommended).
func NewSinc(n float64) *Sinc {
	s := &Sinc{n: n}
	s.sigma = 1 / s.volumeIntegral()
	return s
}

// volumeIntegral computes ∫ S(q) 4π q² dq over [0, 2] with the unnormalized
// sinc shape, via composite Simpson.
func (s *Sinc) volumeIntegral() float64 {
	const steps = 4096
	h := 2.0 / steps
	sum := 0.0
	for i := 0; i <= steps; i++ {
		q := float64(i) * h
		w := s.shape(q) * 4 * math.Pi * q * q
		switch {
		case i == 0 || i == steps:
			sum += w
		case i%2 == 1:
			sum += 4 * w
		default:
			sum += 2 * w
		}
	}
	return sum * h / 3
}

func (s *Sinc) shape(q float64) float64 {
	if q >= 2 {
		return 0
	}
	if q < 1e-12 {
		return 1
	}
	x := math.Pi * q / 2
	return math.Pow(math.Sin(x)/x, s.n)
}

// Name implements Kernel.
func (s *Sinc) Name() string { return "sinc" }

// SupportRadius implements Kernel.
func (s *Sinc) SupportRadius() float64 { return 2 }

// W implements Kernel.
func (s *Sinc) W(r, h float64) float64 {
	q, norm, ok := normalizedEval(r, h)
	if !ok {
		return 0
	}
	return s.sigma * norm * s.shape(q)
}

// DW implements Kernel.
func (s *Sinc) DW(r, h float64) float64 {
	q, norm, ok := normalizedEval(r, h)
	if !ok {
		return 0
	}
	if q < 1e-9 {
		return 0
	}
	x := math.Pi * q / 2
	sinc := math.Sin(x) / x
	dsinc := (math.Cos(x) - sinc) / q // d/dq [sin(x)/x] with x = πq/2 → (π/2)(cos x/x - sin x/x²) = (cos x - sinc)/q
	return s.sigma * norm / h * s.n * math.Pow(sinc, s.n-1) * dsinc
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

// Base returns the analytic kernel the table was built from.
func (t *Table) Base() Kernel { return t.base }

// PairEvaluator is implemented by kernels that can evaluate W and dW/dr
// together, sharing the q normalization and interpolation index between
// the two lookups. Hot loops that need both values should type-assert for
// it; the results are bit-identical to separate W and DW calls.
type PairEvaluator interface {
	WDW(r, h float64) (w, dw float64)
}

// WDW implements PairEvaluator: one q computation and interpolation index
// serve both tables. Bit-identical to calling W and DW separately.
func (t *Table) WDW(r, h float64) (w, dw float64) {
	if h <= 0 {
		return 0, 0
	}
	q := r / h
	if q >= 2 || q < 0 {
		return 0, 0
	}
	f := q * t.invDq
	i := int(f)
	if i >= t.points {
		return 0, 0
	}
	frac := f - float64(i)
	h3 := h * h * h
	w = (t.w[i]*(1-frac) + t.w[i+1]*frac) / h3
	dw = (t.dw[i]*(1-frac) + t.dw[i+1]*frac) / (h3 * h)
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
// relative error of the analytic kernel for every kernel family in this
// package (relative to the peak magnitude of W and DW respectively).
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
