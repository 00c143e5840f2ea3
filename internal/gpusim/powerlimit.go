package gpusim

import "fmt"

// Power-limit management: the second knob NVML exposes next to application
// clocks (nvmlDeviceSetPowerManagementLimit). The paper scales frequency
// directly; sites often cap power instead and let the governor derate
// clocks. The model implements the derating so the two knobs can be
// compared: under a cap, a kernel whose uncapped draw would exceed the
// limit runs at the highest clock whose power fits.

// PowerLimitW returns the active board power limit.
func (d *Device) PowerLimitW() float64 {
	if d.powerLimitW > 0 {
		return d.powerLimitW
	}
	return d.spec.TDPW
}

// SetPowerLimit sets the board power cap in watts
// (nvmlDeviceSetPowerManagementLimit). The accepted range is
// [IdlePowerW + 10%, TDP], mirroring NVML's min/max constraint query; NaN
// lies in no range and is refused.
func (d *Device) SetPowerLimit(watts float64) error {
	min := d.spec.IdlePowerW * 1.1
	if !(watts >= min && watts <= d.spec.TDPW) {
		return fmt.Errorf("gpusim: power limit %.0f W outside [%.0f, %.0f]", watts, min, d.spec.TDPW)
	}
	d.powerLimitW = watts
	return nil
}

// ResetPowerLimit restores the default (TDP) limit.
func (d *Device) ResetPowerLimit() {
	d.powerLimitW = 0
}

// derateClock returns the highest clock <= mhz whose kernel power fits the
// active limit, and that power. If even the minimum clock exceeds the
// limit, the minimum clock is returned at the capped power (real hardware
// behaves the same: hard caps are enforced over longer windows). A power
// that fits is what kernelPower would give there: power caps at TDP and a
// limit never exceeds it.
func (d *Device) derateClock(mhz int, t *kernelTiming) (int, float64) {
	limit := d.spec.TDPW
	if d.powerLimitW > 0 {
		limit = d.powerLimitW
	}
	for f := mhz; f >= d.spec.MinSMClockMHz; f -= d.spec.SMClockStepMHz {
		if p := d.rawKernelPower(f, t); p <= limit {
			return f, p
		}
	}
	return d.spec.MinSMClockMHz, d.kernelPower(d.spec.MinSMClockMHz, t)
}
