package kernel

import (
	"math"
	"testing"
)

// TestWDWWithinToleranceOfSeparateCalls pins the contract the SPH density
// sweep relies on: WDW at the reciprocal smoothing length, rounded once,
// returns W and DW to within WDWRelTol of each one's peak magnitude, across
// the support and past it; at a degenerate h both are exactly 0, as W and
// DW are.
func TestWDWWithinToleranceOfSeparateCalls(t *testing.T) {
	var k WendlandC2
	for _, h := range []float64{0.37, 1, 2.5, 0.0131} {
		r := func(i int) float64 { return float64(i) * 0.00756 * h } // runs past the 2h support
		var wPeak, dwPeak float64
		for i := 0; i <= 400; i++ {
			wPeak = math.Max(wPeak, math.Abs(k.W(r(i), h)))
			dwPeak = math.Max(dwPeak, math.Abs(k.DW(r(i), h)))
		}
		worstW, worstDW := 0.0, 0.0
		for i := 0; i <= 400; i++ {
			w, dw := k.WDW(r(i), 1/h)
			worstW = math.Max(worstW, math.Abs(w-k.W(r(i), h))/wPeak)
			worstDW = math.Max(worstDW, math.Abs(dw-k.DW(r(i), h))/dwPeak)
		}
		if worstW > WDWRelTol || worstDW > WDWRelTol {
			t.Errorf("h %g: WDW lies %.3g (W) and %.3g (DW) of the peak from separate calls, beyond %g",
				h, worstW, worstDW, WDWRelTol)
		}
	}
	for _, h := range []float64{0, -1} {
		for i := 0; i <= 40; i++ {
			r := float64(i) * 0.05
			if w, dw := k.WDW(r, 1/h); w != 0 || dw != 0 || k.W(r, h) != 0 || k.DW(r, h) != 0 {
				t.Fatalf("h %g, r %g: WDW (%g, %g), W %g, DW %g; all must be 0", h, r, w, dw, k.W(r, h), k.DW(r, h))
			}
		}
	}
}
