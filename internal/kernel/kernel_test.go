package kernel

import (
	"math"
	"testing"
	"testing/quick"
)

func kernels() []Kernel {
	return []Kernel{WendlandC2{}}
}

// volumeIntegral numerically integrates W over its support in 3-D.
func volumeIntegral(k Kernel, h float64) float64 {
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
	for _, k := range kernels() {
		for _, h := range []float64{0.5, 1, 2.5} {
			got := volumeIntegral(k, h)
			if math.Abs(got-1) > 2e-3 {
				t.Errorf("%s: integral W dV = %v at h=%v, want 1", k.Name(), got, h)
			}
		}
	}
}

func TestCompactSupport(t *testing.T) {
	for _, k := range kernels() {
		if k.W(2.0, 1.0) != 0 {
			t.Errorf("%s: W(2h) = %v, want 0", k.Name(), k.W(2.0, 1.0))
		}
		if k.W(5.0, 1.0) != 0 || k.DW(5.0, 1.0) != 0 {
			t.Errorf("%s: support leaks beyond 2h", k.Name())
		}
	}
}

func TestPositivityInsideSupport(t *testing.T) {
	for _, k := range kernels() {
		for q := 0.0; q < 1.99; q += 0.05 {
			if w := k.W(q, 1); w <= 0 {
				t.Errorf("%s: W(%v) = %v, want > 0", k.Name(), q, w)
			}
		}
	}
}

func TestDerivativeMatchesNumeric(t *testing.T) {
	const eps = 1e-6
	for _, k := range kernels() {
		for _, r := range []float64{0.1, 0.5, 1.0, 1.5, 1.9} {
			numeric := (k.W(r+eps, 1) - k.W(r-eps, 1)) / (2 * eps)
			got := k.DW(r, 1)
			scale := math.Max(math.Abs(numeric), 1e-3)
			if math.Abs(got-numeric)/scale > 1e-3 {
				t.Errorf("%s: DW(%v) = %v, numeric %v", k.Name(), r, got, numeric)
			}
		}
	}
}

func TestDerivativeNonPositive(t *testing.T) {
	// SPH kernels decrease monotonically with distance.
	for _, k := range kernels() {
		for q := 0.01; q < 2; q += 0.01 {
			if dw := k.DW(q, 1); dw > 1e-12 {
				t.Errorf("%s: DW(%v) = %v > 0", k.Name(), q, dw)
			}
		}
	}
}

func TestScalingWithH(t *testing.T) {
	// W(r, h) = W(r/h, 1)/h^3 for every kernel.
	f := func(rRaw, hRaw float64) bool {
		r := math.Mod(math.Abs(rRaw), 2)
		h := 0.5 + math.Mod(math.Abs(hRaw), 3)
		for _, k := range kernels() {
			want := k.W(r, 1) / (h * h * h)
			got := k.W(r*h, h)
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestInvalidH(t *testing.T) {
	for _, k := range kernels() {
		if k.W(0.5, 0) != 0 || k.W(0.5, -1) != 0 {
			t.Errorf("%s: non-positive h should yield 0", k.Name())
		}
	}
}

func TestTableAccuracy(t *testing.T) {
	for _, base := range kernels() {
		tab := NewTable(base, 4000)
		maxErrW, maxErrD := 0.0, 0.0
		for q := 0.0; q < 2; q += 0.001 {
			ew := math.Abs(tab.W(q, 1) - base.W(q, 1))
			ed := math.Abs(tab.DW(q, 1) - base.DW(q, 1))
			maxErrW = math.Max(maxErrW, ew)
			maxErrD = math.Max(maxErrD, ed)
		}
		if maxErrW > 1e-5 {
			t.Errorf("%s table: max W error %v", base.Name(), maxErrW)
		}
		if maxErrD > 1e-4 {
			t.Errorf("%s table: max DW error %v", base.Name(), maxErrD)
		}
	}
}

func TestTableScaling(t *testing.T) {
	tab := NewTable(WendlandC2{}, 1000)
	base := WendlandC2{}
	for _, h := range []float64{0.3, 1, 4} {
		got := tab.W(0.5*h, h)
		want := base.W(0.5*h, h)
		if math.Abs(got-want) > 1e-5/h/h/h {
			t.Errorf("table at h=%v: %v vs %v", h, got, want)
		}
	}
}

func TestTablePanicsOnTooFewPoints(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTable(.., 1) did not panic")
		}
	}()
	NewTable(WendlandC2{}, 1)
}

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range kernels() {
		n := k.Name()
		if n == "" {
			t.Error("empty kernel name")
		}
		seen[n] = true
	}
	tab := NewTable(WendlandC2{}, 100)
	if tab.Name() != "wendland-c2-table" {
		t.Errorf("table name = %q", tab.Name())
	}
}
