package nvml

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
		devs[i] = gpusim.NewDevice(gpusim.A100SXM480GB(), i)
	}
	lib, err := New(devs)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestRejectsAMDDevices(t *testing.T) {
	amd := gpusim.NewDevice(gpusim.MI250XGCD(), 0)
	if _, err := New([]*gpusim.Device{amd}); err == nil {
		t.Error("AMD device accepted by NVML")
	}
}

func TestUninitializedErrors(t *testing.T) {
	lib := newLib(t, 1)
	if _, err := lib.DeviceGetHandleByIndex(0); !errors.Is(err, ErrUninitialized) {
		t.Errorf("handle before Init: %v", err)
	}
}

func TestHandleOutOfRange(t *testing.T) {
	lib := newLib(t, 1)
	lib.Init()
	if _, err := lib.DeviceGetHandleByIndex(5); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("bad index: %v", err)
	}
	if _, err := lib.DeviceGetHandleByIndex(-1); err == nil {
		t.Error("negative index accepted")
	}
}

// TestSetApplicationsClocks sets the clock of the device behind an NVML
// handle the way strategies do, through freqctl's simulated
// nvmlDeviceSetApplicationsClocks: a request snaps to the nearest supported
// clock and the reset returns the device to the governor.
func TestSetApplicationsClocks(t *testing.T) {
	lib := newLib(t, 1)
	lib.Init()
	if _, err := lib.DeviceGetHandleByIndex(0); err != nil {
		t.Fatal(err)
	}
	sim := lib.devices[0]
	s := freqctl.DeviceSetter{Dev: sim}
	applied, err := s.SetSMClock(1007)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1005 {
		t.Errorf("applied %d, want snapped 1005", applied)
	}
	if got := sim.SMClockMHz(); got != 1005 {
		t.Errorf("device SM clock = %d, want 1005", got)
	}
	if err := s.ResetClocks(); err != nil {
		t.Fatal(err)
	}
	if sim.Mode() != gpusim.ModeAuto {
		t.Error("reset left the clock locked")
	}
}

// TestSupportedGraphicsClocksDescending checks the A100's application clock
// table (nvmlDeviceGetSupportedGraphicsClocks): it descends from 1410 MHz,
// and every clock in it is applied as requested.
func TestSupportedGraphicsClocksDescending(t *testing.T) {
	lib := newLib(t, 1)
	lib.Init()
	sim := lib.devices[0]
	clocks := sim.Spec().SupportedClocksMHz()
	if len(clocks) == 0 || clocks[0] != 1410 {
		t.Fatalf("clock table: %v", clocks)
	}
	for i := 1; i < len(clocks); i++ {
		if clocks[i] >= clocks[i-1] {
			t.Fatal("clock table not descending")
		}
	}
	s := freqctl.DeviceSetter{Dev: sim}
	for _, c := range clocks {
		if applied, err := s.SetSMClock(c); err != nil || applied != c {
			t.Fatalf("SetSMClock(%d) = %d, %v", c, applied, err)
		}
	}
}

func TestEnergyAndPowerUnits(t *testing.T) {
	lib := newLib(t, 1)
	lib.Init()
	dev, _ := lib.DeviceGetHandleByIndex(0)
	sim := lib.devices[0]
	sim.SetApplicationClocks(0, 1410)
	sim.Idle(2) // 2 s at idle power
	timeS, mj, err := dev.TotalEnergyConsumptionAt()
	if err != nil {
		t.Fatal(err)
	}
	wantMJ := int64(sim.Spec().IdlePowerW * 2 * 1000)
	if mj < wantMJ-1 || mj > wantMJ+1 {
		t.Errorf("energy %d mJ, want ~%d", mj, wantMJ)
	}
	if timeS != sim.Now() {
		t.Errorf("energy read at %v s, device at %v s", timeS, sim.Now())
	}
}

func TestName(t *testing.T) {
	lib := newLib(t, 1)
	lib.Init()
	dev, _ := lib.DeviceGetHandleByIndex(0)
	if dev.Name() != "NVIDIA A100-SXM4-80GB" {
		t.Errorf("Name = %q", dev.Name())
	}
}

// TestPowerManagementLimit caps the A100's board power
// (nvmlDeviceSetPowerManagementLimit) through freqctl: the default is the
// 400 W TDP, a cap applies, an absurd one is refused and 0 restores the
// default.
func TestPowerManagementLimit(t *testing.T) {
	lib := newLib(t, 1)
	lib.Init()
	sim := lib.devices[0]
	if w := sim.PowerLimitW(); w != 400 {
		t.Errorf("default limit %v W, want 400", w)
	}
	s := freqctl.DeviceSetter{Dev: sim}
	if err := s.SetPowerLimitW(300); err != nil {
		t.Fatal(err)
	}
	if w := sim.PowerLimitW(); w != 300 {
		t.Errorf("limit after set %v W", w)
	}
	if err := s.SetPowerLimitW(1); err == nil {
		t.Error("absurd limit accepted")
	}
	if w := sim.PowerLimitW(); w != 300 {
		t.Errorf("refused cap moved the limit to %v W", w)
	}
	if err := s.SetPowerLimitW(0); err != nil {
		t.Fatal(err)
	}
	if w := sim.PowerLimitW(); w != 400 {
		t.Errorf("limit after reset %v W, want 400", w)
	}
}
