package rsmi

import (
	"testing"

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

func TestClkFreqGetSet(t *testing.T) {
	lib := newLib(t, 1)
	freqs, cur, err := lib.DevGPUClkFreqGet(0)
	if err != nil {
		t.Fatal(err)
	}
	if freqs[0] != 1700 {
		t.Errorf("top frequency %d, want 1700", freqs[0])
	}
	if cur < 0 || cur >= len(freqs) {
		t.Errorf("current index %d out of range", cur)
	}
	// Set to the second-highest entry.
	applied, err := lib.DevGPUClkFreqSet(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if applied != freqs[1] {
		t.Errorf("applied %d, want %d", applied, freqs[1])
	}
	_, cur, _ = lib.DevGPUClkFreqGet(0)
	if cur != 1 {
		t.Errorf("current index after set = %d, want 1", cur)
	}
}

func TestClkFreqSetBadIndex(t *testing.T) {
	lib := newLib(t, 1)
	if _, err := lib.DevGPUClkFreqSet(0, 9999); err == nil {
		t.Error("bad frequency index accepted")
	}
	if _, err := lib.DevGPUClkFreqSet(5, 0); err == nil {
		t.Error("bad device index accepted")
	}
}

func TestPerfLevelAuto(t *testing.T) {
	lib := newLib(t, 1)
	lib.DevGPUClkFreqSet(0, 0)
	if err := lib.DevPerfLevelSetAuto(0); err != nil {
		t.Fatal(err)
	}
}

func TestPowerAndEnergyCounters(t *testing.T) {
	devs := []*gpusim.Device{gpusim.NewDevice(gpusim.MI250XGCD(), 0)}
	lib, _ := New(devs)
	devs[0].Idle(3)
	_, uj, err := lib.DevEnergyCountGetAt(0)
	if err != nil {
		t.Fatal(err)
	}
	// In auto mode the governor adds its stability margin on top of the
	// idle floor, so the counter sits between floor and 1.5x floor.
	floorUJ := uint64(devs[0].Spec().IdlePowerW * 3 * 1e6)
	if uj < floorUJ || uj > floorUJ*3/2 {
		t.Errorf("energy %d µJ, want in [%d, %d]", uj, floorUJ, floorUJ*3/2)
	}
}

func TestPowerCapSetGetReset(t *testing.T) {
	devs := []*gpusim.Device{gpusim.NewDevice(gpusim.MI250XGCD(), 0)}
	lib, _ := New(devs)
	if err := lib.DevPowerCapSet(0, 200e6); err != nil { // 200 W
		t.Fatal(err)
	}
	if w := devs[0].PowerLimitW(); w != 200 {
		t.Errorf("cap %v W", w)
	}
	if err := lib.DevPowerCapSet(0, 1e12); err == nil {
		t.Error("absurd cap accepted")
	}
	if err := lib.DevPowerCapReset(0); err != nil {
		t.Fatal(err)
	}
	if w := devs[0].PowerLimitW(); w != devs[0].Spec().TDPW {
		t.Errorf("cap after reset %v W", w)
	}
	// Bad device indices.
	if err := lib.DevPowerCapSet(5, 1); err == nil {
		t.Error("bad index accepted")
	}
	if err := lib.DevPowerCapReset(5); err == nil {
		t.Error("bad index accepted")
	}
}
