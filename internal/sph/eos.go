package sph

import "math"

// EOS is an equation of state mapping (density, specific internal energy)
// to (pressure, sound speed).
type EOS interface {
	PressureSoundSpeed(rho, u float64) (p, c float64)
	Name() string
}

// IdealGas is the gamma-law equation of state P = (gamma-1) rho u, the EOS
// used by the Evrard collapse test (gamma = 5/3).
type IdealGas struct {
	Gamma float64
}

// Name implements EOS.
func (g IdealGas) Name() string { return "ideal-gas" }

// PressureSoundSpeed implements EOS.
func (g IdealGas) PressureSoundSpeed(rho, u float64) (float64, float64) {
	if rho <= 0 {
		return 0, 0
	}
	p := (g.Gamma - 1) * rho * u
	c := math.Sqrt(g.Gamma * p / rho)
	return p, c
}

// Isothermal is the isothermal EOS P = cs^2 rho used by driven-turbulence
// setups such as the Subsonic Turbulence test.
type Isothermal struct {
	Cs float64 // constant sound speed
}

// Name implements EOS.
func (iso Isothermal) Name() string { return "isothermal" }

// PressureSoundSpeed implements EOS.
func (iso Isothermal) PressureSoundSpeed(rho, _ float64) (float64, float64) {
	return iso.Cs * iso.Cs * rho, iso.Cs
}
