// Package nvml resolves NVML device handles on simulated Nvidia devices:
// the library context (nvmlInit) and nvmlDeviceGetHandleByIndex, the
// calls a rank makes to find the device it is bound to. A handle exposes
// its device; the energy counter is read by pmt.NewNVML over it, and
// clocks and power caps are set by internal/freqctl. The benchmark's
// sampler probe is the one caller left: this package goes together with
// that probe.
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

// GPU returns the simulated device behind the handle.
func (dev Device) GPU() *gpusim.Device { return dev.d }

// Library is one NVML context over a node's Nvidia devices.
type Library struct {
	devices     []*gpusim.Device
	initialized bool
}

// New creates a library over the given devices. Non-Nvidia devices are
// rejected.
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
