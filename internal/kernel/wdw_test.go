package kernel

import "testing"

// TestWDWBitIdenticalToSeparateCalls pins the PairEvaluator contract the
// SPH pair passes rely on: the fused lookup must return exactly the floats
// of separate W and DW calls across the support (including the
// out-of-support and degenerate-h edges).
func TestWDWBitIdenticalToSeparateCalls(t *testing.T) {
	tab := NewTable(WendlandC2{}, 512)
	for _, h := range []float64{0.37, 1, 2.5, 0, -1} {
		for i := 0; i <= 400; i++ {
			r := float64(i) * 0.0151 // runs past the 2h support at every h
			w, dw := tab.WDW(r, h)
			if ws, dws := tab.W(r, h), tab.DW(r, h); w != ws || dw != dws {
				t.Fatalf("WDW(%g, %g) = (%g, %g), separate calls give (%g, %g)", r, h, w, dw, ws, dws)
			}
		}
	}
}
