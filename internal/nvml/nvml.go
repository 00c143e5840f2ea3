// Package nvml provides the NVML energy-counter reads that PMT's NVML
// back-end makes on simulated Nvidia devices. Names and call shapes follow
// the NVIDIA Management Library (nvmlInit, nvmlDeviceGetHandleByIndex,
// nvmlDeviceGetTotalEnergyConsumption). Clock control does not pass through
// here: internal/freqctl sets the simulated device's application clocks
// directly.
//
// A Library instance corresponds to one node's NVML context: device indices
// are node-local ordinals, exactly what getNvmlDevice resolves for the MPI
// rank bound to the device.
package nvml

import (
	"errors"
	"fmt"

	"sphenergy/internal/gpusim"
)

// Return codes, mirroring nvmlReturn_t.
var (
	// ErrUninitialized is returned when the library was not initialized.
	ErrUninitialized = errors.New("nvml: uninitialized")
	// ErrInvalidArgument is returned for out-of-range indices and
	// non-Nvidia devices.
	ErrInvalidArgument = errors.New("nvml: invalid argument")
)

// Device is an opaque device handle (nvmlDevice_t).
type Device struct {
	d *gpusim.Device
}

// Library is one NVML context over a node's Nvidia devices.
type Library struct {
	devices     []*gpusim.Device
	initialized bool
}

// New creates a library over the given devices. Non-Nvidia devices are
// rejected: the caller should hand AMD devices to the rsmi package instead.
func New(devices []*gpusim.Device) (*Library, error) {
	for _, d := range devices {
		if d.Spec().Vendor != gpusim.Nvidia {
			return nil, fmt.Errorf("%w: device %q is not an Nvidia device", ErrInvalidArgument, d.Spec().Name)
		}
	}
	return &Library{devices: devices}, nil
}

// Init initializes the library (nvmlInit_v2).
func (l *Library) Init() error {
	l.initialized = true
	return nil
}

// DeviceGetHandleByIndex resolves a device handle
// (nvmlDeviceGetHandleByIndex_v2).
func (l *Library) DeviceGetHandleByIndex(index int) (Device, error) {
	if !l.initialized {
		return Device{}, ErrUninitialized
	}
	if index < 0 || index >= len(l.devices) {
		return Device{}, fmt.Errorf("%w: device index %d", ErrInvalidArgument, index)
	}
	return Device{d: l.devices[index]}, nil
}

// Name returns the product name (nvmlDeviceGetName).
func (dev Device) Name() string { return dev.d.Spec().Name }

// TotalEnergyConsumptionAt returns cumulative energy in millijoules
// (nvmlDeviceGetTotalEnergyConsumption) with the device time the counter
// stood at that value, the two read together (see gpusim.Device.EnergyAt).
func (dev Device) TotalEnergyConsumptionAt() (timeS float64, mj int64, err error) {
	timeS, j := dev.d.EnergyAt()
	return timeS, int64(j * 1000), nil
}
