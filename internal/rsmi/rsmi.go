// Package rsmi provides the rocm-smi-lib energy-counter read that PMT's
// ROCm-SMI back-end makes on simulated AMD devices, the counterpart of
// internal/nvml for the LUMI-G system model. The call shape follows
// rsmi_dev_energy_count_get. Clock control does not pass through here:
// internal/freqctl sets the simulated device's clocks directly.
package rsmi

import (
	"errors"
	"fmt"

	"sphenergy/internal/gpusim"
)

// ErrInvalidArgs mirrors rsmi_status_t's RSMI_STATUS_INVALID_ARGS, returned
// for out-of-range indices and non-AMD devices.
var ErrInvalidArgs = errors.New("rsmi: invalid args")

// Library is one rocm-smi context over a node's AMD devices (GCDs).
type Library struct {
	devices []*gpusim.Device
}

// New creates a library over AMD devices; non-AMD devices are rejected.
func New(devices []*gpusim.Device) (*Library, error) {
	for _, d := range devices {
		if d.Spec().Vendor != gpusim.AMD {
			return nil, fmt.Errorf("%w: device %q is not an AMD device", ErrInvalidArgs, d.Spec().Name)
		}
	}
	return &Library{devices: devices}, nil
}

// DevEnergyCountGetAt returns accumulated energy in microjoules
// (rsmi_dev_energy_count_get) with the device time the counter stood at
// that value, the two read together (see gpusim.Device.EnergyAt) — the
// timestamp rsmi_dev_energy_count_get itself hands back.
func (l *Library) DevEnergyCountGetAt(i int) (timeS float64, uj uint64, err error) {
	if i < 0 || i >= len(l.devices) {
		return 0, 0, fmt.Errorf("%w: device index %d", ErrInvalidArgs, i)
	}
	timeS, j := l.devices[i].EnergyAt()
	return timeS, uint64(j * 1e6), nil
}
