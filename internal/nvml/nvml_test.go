package nvml

import (
	"errors"
	"testing"

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

func TestSetApplicationsClocks(t *testing.T) {
	lib := newLib(t, 1)
	lib.Init()
	dev, _ := lib.DeviceGetHandleByIndex(0)
	applied, err := dev.SetApplicationsClocks(0, 1007)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1005 {
		t.Errorf("applied %d, want snapped 1005", applied)
	}
	if got := dev.Sim().SMClockMHz(); got != 1005 {
		t.Errorf("device SM clock = %d, want 1005", got)
	}
	if err := dev.ResetApplicationsClocks(); err != nil {
		t.Fatal(err)
	}
}

func TestSupportedGraphicsClocksDescending(t *testing.T) {
	lib := newLib(t, 1)
	lib.Init()
	dev, _ := lib.DeviceGetHandleByIndex(0)
	clocks := dev.SupportedGraphicsClocks()
	if len(clocks) == 0 || clocks[0] != 1410 {
		t.Fatalf("clock table: %v", clocks)
	}
	for i := 1; i < len(clocks); i++ {
		if clocks[i] >= clocks[i-1] {
			t.Fatal("clock table not descending")
		}
	}
}

func TestEnergyAndPowerUnits(t *testing.T) {
	lib := newLib(t, 1)
	lib.Init()
	dev, _ := lib.DeviceGetHandleByIndex(0)
	dev.SetApplicationsClocks(0, 1410)
	dev.Sim().Idle(2) // 2 s at idle power
	timeS, mj, err := dev.TotalEnergyConsumptionAt()
	if err != nil {
		t.Fatal(err)
	}
	wantMJ := int64(dev.Sim().Spec().IdlePowerW * 2 * 1000)
	if mj < wantMJ-1 || mj > wantMJ+1 {
		t.Errorf("energy %d mJ, want ~%d", mj, wantMJ)
	}
	if timeS != dev.Sim().Now() {
		t.Errorf("energy read at %v s, device at %v s", timeS, dev.Sim().Now())
	}
}

func TestPowerManagementLimit(t *testing.T) {
	lib := newLib(t, 1)
	lib.Init()
	dev, _ := lib.DeviceGetHandleByIndex(0)
	if w := dev.Sim().PowerLimitW(); w != 400 {
		t.Errorf("default limit %v W, want 400", w)
	}
	if err := dev.SetPowerManagementLimit(300000); err != nil {
		t.Fatal(err)
	}
	if w := dev.Sim().PowerLimitW(); w != 300 {
		t.Errorf("limit after set %v W", w)
	}
	if err := dev.SetPowerManagementLimit(1000); err == nil {
		t.Error("absurd limit accepted")
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
