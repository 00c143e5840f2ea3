// Package rsmi provides a rocm-smi-lib-shaped management API over simulated
// AMD devices, the counterpart of internal/nvml for the LUMI-G system model.
// Call shapes follow rsmi_dev_* functions: frequencies are reported through
// frequency tables with a current index, power through the average socket
// power counter, energy through the accumulated energy counter.
package rsmi

import (
	"errors"
	"fmt"

	"sphenergy/internal/gpusim"
)

// Errors mirroring rsmi_status_t failures.
var (
	// ErrInvalidArgs is returned for out-of-range indices.
	ErrInvalidArgs = errors.New("rsmi: invalid args")
	// ErrNotSupported is returned for unsupported requests.
	ErrNotSupported = errors.New("rsmi: not supported")
)

// FaultHook intercepts management-library operations for fault injection,
// mirroring nvml.FaultHook: op names the operation ("energy-read",
// "clock-set", "power-read"), arg carries the requested SM MHz for
// clock-set. Production paths leave the hook nil.
type FaultHook func(op string, arg int) (int, error)

// Library is one rocm-smi context over a node's AMD devices (GCDs).
type Library struct {
	devices []*gpusim.Device
	hook    FaultHook
}

// SetFaultHook installs (or clears, with nil) the fault-injection hook.
func (l *Library) SetFaultHook(h FaultHook) { l.hook = h }

func (l *Library) fault(op string, arg int) (int, error) {
	if l.hook == nil {
		return arg, nil
	}
	return l.hook(op, arg)
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

// NumMonitorDevices returns the device count (rsmi_num_monitor_devices).
func (l *Library) NumMonitorDevices() int { return len(l.devices) }

func (l *Library) dev(i int) (*gpusim.Device, error) {
	if i < 0 || i >= len(l.devices) {
		return nil, fmt.Errorf("%w: device index %d", ErrInvalidArgs, i)
	}
	return l.devices[i], nil
}

// DevGPUClkFreqGet returns the supported SM clock table and current index
// (rsmi_dev_gpu_clk_freq_get with RSMI_CLK_TYPE_SYS).
func (l *Library) DevGPUClkFreqGet(i int) (freqsMHz []int, current int, err error) {
	d, err := l.dev(i)
	if err != nil {
		return nil, 0, err
	}
	freqsMHz = d.Spec().SupportedClocksMHz()
	cur := d.SMClockMHz()
	current = 0
	best := 1 << 30
	for idx, f := range freqsMHz {
		if diff := abs(f - cur); diff < best {
			best, current = diff, idx
		}
	}
	return freqsMHz, current, nil
}

// DevGPUClkFreqSet pins the SM clock to the table entry at index
// (rsmi_dev_gpu_clk_freq_set). Returns the applied clock in MHz.
func (l *Library) DevGPUClkFreqSet(i, index int) (int, error) {
	d, err := l.dev(i)
	if err != nil {
		return 0, err
	}
	want, ok := d.Spec().SupportedClockAt(index)
	if !ok {
		return 0, fmt.Errorf("%w: frequency index %d", ErrInvalidArgs, index)
	}
	// A hook that clamped the request is honored at the nearest table
	// entry, the snap SetApplicationClocks applies as the platform
	// firmware does.
	mhz, err := l.fault("clock-set", want)
	if err != nil {
		return 0, err
	}
	return d.SetApplicationClocks(0, mhz)
}

// DevPerfLevelSetAuto restores automatic (governor) clock management
// (rsmi_dev_perf_level_set RSMI_DEV_PERF_LEVEL_AUTO).
func (l *Library) DevPerfLevelSetAuto(i int) error {
	d, err := l.dev(i)
	if err != nil {
		return err
	}
	d.ResetApplicationClocks()
	return nil
}

// DevPowerAveGet returns the current socket power in microwatts
// (rsmi_dev_power_ave_get).
func (l *Library) DevPowerAveGet(i int) (int64, error) {
	d, err := l.dev(i)
	if err != nil {
		return 0, err
	}
	if _, err := l.fault("power-read", 0); err != nil {
		return 0, err
	}
	return int64(d.PowerW() * 1e6), nil
}

// DevEnergyCountGet returns accumulated energy in microjoules
// (rsmi_dev_energy_count_get).
func (l *Library) DevEnergyCountGet(i int) (uint64, error) {
	_, uj, err := l.DevEnergyCountGetAt(i)
	return uj, err
}

// DevEnergyCountGetAt is DevEnergyCountGet with the device time the counter
// stood at that value, the two read together (see gpusim.Device.EnergyAt) —
// the timestamp rsmi_dev_energy_count_get itself hands back. A failed read
// of a valid device still reports the device's time.
func (l *Library) DevEnergyCountGetAt(i int) (timeS float64, uj uint64, err error) {
	d, err := l.dev(i)
	if err != nil {
		return 0, 0, err
	}
	if _, err := l.fault("energy-read", 0); err != nil {
		return d.Now(), 0, err
	}
	timeS, j := d.EnergyAt()
	return timeS, uint64(j * 1e6), nil
}

// DevPowerCapSet sets the socket power cap in microwatts
// (rsmi_dev_power_cap_set).
func (l *Library) DevPowerCapSet(i int, uw int64) error {
	d, err := l.dev(i)
	if err != nil {
		return err
	}
	if err := d.SetPowerLimit(float64(uw) / 1e6); err != nil {
		return fmt.Errorf("%w: %v", ErrNotSupported, err)
	}
	return nil
}

// DevPowerCapReset restores the default (board maximum) power cap.
func (l *Library) DevPowerCapReset(i int) error {
	d, err := l.dev(i)
	if err != nil {
		return err
	}
	d.ResetPowerLimit()
	return nil
}

// DevPowerCapGet returns the active socket power cap in microwatts
// (rsmi_dev_power_cap_get).
func (l *Library) DevPowerCapGet(i int) (int64, error) {
	d, err := l.dev(i)
	if err != nil {
		return 0, err
	}
	return int64(d.PowerLimitW() * 1e6), nil
}

// DevBusyPercentGet returns coarse utilization (rsmi_dev_busy_percent_get).
func (l *Library) DevBusyPercentGet(i int) (int, error) {
	d, err := l.dev(i)
	if err != nil {
		return 0, err
	}
	return int(d.Utilization()*100 + 0.5), nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
