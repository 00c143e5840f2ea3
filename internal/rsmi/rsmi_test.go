package rsmi

import (
	"errors"
	"testing"

	"sphenergy/internal/freqctl"
	"sphenergy/internal/gpusim"
)

func newLib(t *testing.T, n int) *Library {
	t.Helper()
	devs := make([]*gpusim.Device, n)
	for i := range devs {
		devs[i] = gpusim.NewDevice(gpusim.MI250XGCD(), i)
	}
	lib, err := New(devs)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestRejectsNvidiaDevices(t *testing.T) {
	nv := gpusim.NewDevice(gpusim.A100SXM480GB(), 0)
	if _, err := New([]*gpusim.Device{nv}); err == nil {
		t.Error("Nvidia device accepted by rsmi")
	}
}

// TestClkFreqGetSet walks the MI250X's system clock table
// (rsmi_dev_gpu_clk_freq_get) and sets the entries through freqctl, the one
// clock-control path: the table tops at 1700 MHz and each entry is applied
// as requested.
func TestClkFreqGetSet(t *testing.T) {
	lib := newLib(t, 1)
	dev := lib.devices[0]
	freqs := dev.Spec().SupportedClocksMHz()
	if freqs[0] != 1700 {
		t.Errorf("top frequency %d, want 1700", freqs[0])
	}
	s := freqctl.DeviceSetter{Dev: dev}
	for _, f := range freqs {
		applied, err := s.SetSMClock(f)
		if err != nil {
			t.Fatal(err)
		}
		if applied != f || dev.SMClockMHz() != f {
			t.Errorf("set %d: applied %d, device at %d", f, applied, dev.SMClockMHz())
		}
	}
}

// TestClkFreqSetBadIndex checks requests outside the MI250X's table: a
// clock past either end lands on that end, and a device index outside the
// library is refused.
func TestClkFreqSetBadIndex(t *testing.T) {
	lib := newLib(t, 1)
	dev := lib.devices[0]
	spec := dev.Spec()
	s := freqctl.DeviceSetter{Dev: dev}
	for _, tc := range []struct{ req, want int }{
		{9999, spec.MaxSMClockMHz},
		{spec.MaxSMClockMHz + spec.SMClockStepMHz, spec.MaxSMClockMHz},
		{spec.MinSMClockMHz - spec.SMClockStepMHz, spec.MinSMClockMHz},
		{0, spec.MinSMClockMHz},
	} {
		if applied, err := s.SetSMClock(tc.req); err != nil || applied != tc.want {
			t.Errorf("SetSMClock(%d) = %d, %v; want %d", tc.req, applied, err, tc.want)
		}
	}
	for _, i := range []int{-1, 1, 5} {
		if _, _, err := lib.DevEnergyCountGetAt(i); !errors.Is(err, ErrInvalidArgs) {
			t.Errorf("device index %d: %v, want ErrInvalidArgs", i, err)
		}
	}
}

// TestPerfLevelAuto returns a locked GCD to automatic clock management
// (rsmi_dev_perf_level_set RSMI_DEV_PERF_LEVEL_AUTO) through freqctl.
func TestPerfLevelAuto(t *testing.T) {
	lib := newLib(t, 1)
	dev := lib.devices[0]
	s := freqctl.DeviceSetter{Dev: dev}
	if _, err := s.SetSMClock(s.MaxSMClock()); err != nil {
		t.Fatal(err)
	}
	if dev.Mode() != gpusim.ModeLocked {
		t.Fatal("set left the governor in control")
	}
	if err := s.ResetClocks(); err != nil {
		t.Fatal(err)
	}
	if dev.Mode() != gpusim.ModeAuto {
		t.Error("reset left the clock locked")
	}
}

func TestPowerAndEnergyCounters(t *testing.T) {
	lib := newLib(t, 1)
	dev := lib.devices[0]
	dev.Idle(3)
	timeS, uj, err := lib.DevEnergyCountGetAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if timeS != dev.Now() {
		t.Errorf("energy read at %v s, device at %v s", timeS, dev.Now())
	}
	// In auto mode the governor adds its stability margin on top of the
	// idle floor, so the counter sits between floor and 1.5x floor.
	floorUJ := uint64(dev.Spec().IdlePowerW * 3 * 1e6)
	if uj < floorUJ || uj > floorUJ*3/2 {
		t.Errorf("energy %d µJ, want in [%d, %d]", uj, floorUJ, floorUJ*3/2)
	}
}

// TestPowerCapSetGetReset caps a GCD's socket power (rsmi_dev_power_cap_set)
// through freqctl: a cap applies, an absurd one is refused, and 0 restores
// the board maximum.
func TestPowerCapSetGetReset(t *testing.T) {
	lib := newLib(t, 1)
	dev := lib.devices[0]
	s := freqctl.DeviceSetter{Dev: dev}
	if err := s.SetPowerLimitW(200); err != nil {
		t.Fatal(err)
	}
	if w := dev.PowerLimitW(); w != 200 {
		t.Errorf("cap %v W", w)
	}
	if err := s.SetPowerLimitW(1e6); err == nil {
		t.Error("absurd cap accepted")
	}
	if err := s.SetPowerLimitW(0); err != nil {
		t.Fatal(err)
	}
	if w := dev.PowerLimitW(); w != dev.Spec().TDPW {
		t.Errorf("cap after reset %v W", w)
	}
}
