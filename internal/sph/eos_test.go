package sph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIdealGas(t *testing.T) {
	eos := IdealGas{Gamma: 5.0 / 3.0}
	p, c := eos.PressureSoundSpeed(2.0, 3.0)
	wantP := (5.0/3.0 - 1) * 2 * 3
	if math.Abs(p-wantP) > 1e-12 {
		t.Errorf("P = %v, want %v", p, wantP)
	}
	wantC := math.Sqrt(5.0 / 3.0 * wantP / 2.0)
	if math.Abs(c-wantC) > 1e-12 {
		t.Errorf("c = %v, want %v", c, wantC)
	}
}

func TestIdealGasDegenerate(t *testing.T) {
	eos := IdealGas{Gamma: 5.0 / 3.0}
	p, c := eos.PressureSoundSpeed(0, 1)
	if p != 0 || c != 0 {
		t.Errorf("zero density should give zero P and c, got %v %v", p, c)
	}
}

func TestIsothermal(t *testing.T) {
	eos := Isothermal{Cs: 2}
	p, c := eos.PressureSoundSpeed(3, 999 /* u ignored */)
	if p != 12 {
		t.Errorf("P = %v, want 12", p)
	}
	if c != 2 {
		t.Errorf("c = %v, want 2", c)
	}
}

func TestEOSPositivityProperty(t *testing.T) {
	list := []EOS{IdealGas{Gamma: 1.4}, Isothermal{Cs: 1}}
	f := func(rhoRaw, uRaw float64) bool {
		rho := math.Abs(rhoRaw)
		u := math.Abs(uRaw)
		if math.IsInf(rho, 0) || math.IsInf(u, 0) || rho == 0 {
			return true
		}
		for _, e := range list {
			p, c := e.PressureSoundSpeed(rho, u)
			if p < 0 || c < 0 || math.IsNaN(p) || math.IsNaN(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEOSNames(t *testing.T) {
	if (IdealGas{}).Name() != "ideal-gas" {
		t.Error("ideal gas name")
	}
	if (Isothermal{}).Name() != "isothermal" {
		t.Error("isothermal name")
	}
}
