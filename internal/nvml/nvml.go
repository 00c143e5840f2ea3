// Package nvml provides an NVML-shaped management API over simulated
// Nvidia devices. Names and call shapes follow the NVIDIA Management
// Library (nvmlInit, nvmlDeviceGetHandleByIndex,
// nvmlDeviceSetApplicationsClocks, ...) so that the instrumentation code in
// internal/core reads like the paper's §III-D listing.
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
	// ErrInvalidArgument is returned for out-of-range indices or clocks.
	ErrInvalidArgument = errors.New("nvml: invalid argument")
	// ErrNotSupported is returned when the device cannot honor a request.
	ErrNotSupported = errors.New("nvml: not supported")
)

// FaultHook intercepts management-library operations for fault injection.
// op names the operation ("energy-read", "clock-set", "power-read"), arg
// carries the operation's integer argument where one exists (the requested
// SM MHz for clock-set). The hook may pass the call through (arg, nil),
// rewrite the argument (a clamped clock), or fail it. Production paths
// leave the hook nil.
type FaultHook func(op string, arg int) (int, error)

// Device is an opaque device handle (nvmlDevice_t).
type Device struct {
	d   *gpusim.Device
	lib *Library
}

// Library is one NVML context over a node's Nvidia devices.
type Library struct {
	devices     []*gpusim.Device
	initialized bool
	hook        FaultHook
}

// SetFaultHook installs (or clears, with nil) the fault-injection hook.
// Handles resolved before or after the call observe the new hook.
func (l *Library) SetFaultHook(h FaultHook) { l.hook = h }

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

// Shutdown tears down the library (nvmlShutdown).
func (l *Library) Shutdown() error {
	l.initialized = false
	return nil
}

// DeviceCount returns the number of devices (nvmlDeviceGetCount_v2).
func (l *Library) DeviceCount() (int, error) {
	if !l.initialized {
		return 0, ErrUninitialized
	}
	return len(l.devices), nil
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
	return Device{d: l.devices[index], lib: l}, nil
}

// SetFaultHook installs the hook on the handle's library — convenience for
// callers that hold only a Device (e.g. freqctl setters built by
// SetterFor, whose library is internal). No-op on zero-value handles.
func (dev Device) SetFaultHook(h FaultHook) {
	if dev.lib != nil {
		dev.lib.SetFaultHook(h)
	}
}

// fault consults the library hook; zero-value handles (no library) and
// hookless libraries pass everything through.
func (dev Device) fault(op string, arg int) (int, error) {
	if dev.lib == nil || dev.lib.hook == nil {
		return arg, nil
	}
	return dev.lib.hook(op, arg)
}

// Name returns the product name (nvmlDeviceGetName).
func (dev Device) Name() string { return dev.d.Spec().Name }

// SetApplicationsClocks pins memory and SM clocks
// (nvmlDeviceSetApplicationsClocks). The simulated devices accept any
// supported SM clock without requiring root, emulating the user-level
// control path the paper establishes. Returns the applied SM clock.
func (dev Device) SetApplicationsClocks(memMHz, smMHz int) (int, error) {
	smMHz, err := dev.fault("clock-set", smMHz)
	if err != nil {
		return 0, err
	}
	applied, err := dev.d.SetApplicationClocks(memMHz, smMHz)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrNotSupported, err)
	}
	return applied, nil
}

// ResetApplicationsClocks restores governor control
// (nvmlDeviceResetApplicationsClocks).
func (dev Device) ResetApplicationsClocks() error {
	dev.d.ResetApplicationClocks()
	return nil
}

// ClockInfo returns the current clock of a domain in MHz
// (nvmlDeviceGetClockInfo).
func (dev Device) ClockInfo(domain ClockDomain) (int, error) {
	switch domain {
	case ClockSM, ClockGraphics:
		return dev.d.SMClockMHz(), nil
	case ClockMem:
		return dev.d.MemClockMHz(), nil
	default:
		return 0, ErrInvalidArgument
	}
}

// SupportedGraphicsClocks lists supported application SM clocks, descending
// (nvmlDeviceGetSupportedGraphicsClocks).
func (dev Device) SupportedGraphicsClocks() []int {
	return dev.d.Spec().SupportedClocksMHz()
}

// PowerUsage returns the current board draw in milliwatts
// (nvmlDeviceGetPowerUsage).
func (dev Device) PowerUsage() (int, error) {
	if _, err := dev.fault("power-read", 0); err != nil {
		return 0, err
	}
	return int(dev.d.PowerW() * 1000), nil
}

// TotalEnergyConsumption returns cumulative energy in millijoules
// (nvmlDeviceGetTotalEnergyConsumption).
func (dev Device) TotalEnergyConsumption() (int64, error) {
	_, mj, err := dev.TotalEnergyConsumptionAt()
	return mj, err
}

// TotalEnergyConsumptionAt is TotalEnergyConsumption with the device time
// the counter stood at that value, the two read together (see
// gpusim.Device.EnergyAt). A failed read still reports the device's time.
func (dev Device) TotalEnergyConsumptionAt() (timeS float64, mj int64, err error) {
	if _, err := dev.fault("energy-read", 0); err != nil {
		return dev.d.Now(), 0, err
	}
	timeS, j := dev.d.EnergyAt()
	return timeS, int64(j * 1000), nil
}

// PowerManagementLimit returns the active board power limit in milliwatts
// (nvmlDeviceGetPowerManagementLimit).
func (dev Device) PowerManagementLimit() (int, error) {
	return int(dev.d.PowerLimitW() * 1000), nil
}

// SetPowerManagementLimit caps the board power in milliwatts
// (nvmlDeviceSetPowerManagementLimit).
func (dev Device) SetPowerManagementLimit(mw int) error {
	if err := dev.d.SetPowerLimit(float64(mw) / 1000); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidArgument, err)
	}
	return nil
}

// UtilizationRates returns the coarse GPU utilization percentage
// (nvmlDeviceGetUtilizationRates). Like the real counter, this reflects
// "a kernel was resident", not how well it used the device.
func (dev Device) UtilizationRates() (int, error) {
	return int(dev.d.Utilization()*100 + 0.5), nil
}

// Sim exposes the underlying simulated device for test hooks; production
// code paths use only the NVML-shaped methods above.
func (dev Device) Sim() *gpusim.Device { return dev.d }

// ClockDomain selects a clock domain (nvmlClockType_t).
type ClockDomain int

// Clock domains.
const (
	ClockGraphics ClockDomain = iota
	ClockSM
	ClockMem
)
