package kernel

import (
	"math"
	"testing"
	"testing/quick"
)

// volumeIntegral numerically integrates W over its support in 3-D.
func volumeIntegral(k WendlandC2, h float64) float64 {
	const steps = 2000
	rmax := k.SupportRadius() * h
	dr := rmax / steps
	sum := 0.0
	for i := 0; i < steps; i++ {
		r := (float64(i) + 0.5) * dr
		sum += k.W(r, h) * 4 * math.Pi * r * r * dr
	}
	return sum
}

func TestNormalization(t *testing.T) {
	var k WendlandC2
	for _, h := range []float64{0.5, 1, 2.5} {
		got := volumeIntegral(k, h)
		if math.Abs(got-1) > 2e-3 {
			t.Errorf("integral W dV = %v at h=%v, want 1", got, h)
		}
	}
}

func TestCompactSupport(t *testing.T) {
	var k WendlandC2
	if k.W(2.0, 1.0) != 0 {
		t.Errorf("W(2h) = %v, want 0", k.W(2.0, 1.0))
	}
	if k.W(5.0, 1.0) != 0 || k.DW(5.0, 1.0) != 0 {
		t.Error("support leaks beyond 2h")
	}
}

func TestPositivityInsideSupport(t *testing.T) {
	var k WendlandC2
	for q := 0.0; q < 1.99; q += 0.05 {
		if w := k.W(q, 1); w <= 0 {
			t.Errorf("W(%v) = %v, want > 0", q, w)
		}
	}
}

func TestDerivativeMatchesNumeric(t *testing.T) {
	const eps = 1e-6
	var k WendlandC2
	for _, r := range []float64{0.1, 0.5, 1.0, 1.5, 1.9} {
		numeric := (k.W(r+eps, 1) - k.W(r-eps, 1)) / (2 * eps)
		got := k.DW(r, 1)
		scale := math.Max(math.Abs(numeric), 1e-3)
		if math.Abs(got-numeric)/scale > 1e-3 {
			t.Errorf("DW(%v) = %v, numeric %v", r, got, numeric)
		}
	}
}

func TestDerivativeNonPositive(t *testing.T) {
	// SPH kernels decrease monotonically with distance.
	var k WendlandC2
	for q := 0.01; q < 2; q += 0.01 {
		if dw := k.DW(q, 1); dw > 1e-12 {
			t.Errorf("DW(%v) = %v > 0", q, dw)
		}
	}
}

func TestScalingWithH(t *testing.T) {
	// W(r, h) = W(r/h, 1)/h^3.
	var k WendlandC2
	f := func(rRaw, hRaw float64) bool {
		r := math.Mod(math.Abs(rRaw), 2)
		h := 0.5 + math.Mod(math.Abs(hRaw), 3)
		want := k.W(r, 1) / (h * h * h)
		got := k.W(r*h, h)
		return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestInvalidH(t *testing.T) {
	var k WendlandC2
	if k.W(0.5, 0) != 0 || k.W(0.5, -1) != 0 {
		t.Error("non-positive h should yield 0")
	}
}
