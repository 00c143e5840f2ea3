package nvml_test

import (
	"math"
	"testing"

	"sphenergy/internal/gpusim"
	"sphenergy/internal/nvml"
	"sphenergy/internal/pmt"
)

func handle(t *testing.T) nvml.Device {
	t.Helper()
	lib, err := nvml.New([]*gpusim.Device{gpusim.NewDevice(gpusim.A100SXM480GB(), 0)})
	if err != nil {
		t.Fatal(err)
	}
	lib.Init()
	h, err := lib.DeviceGetHandleByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestEnergyAndPowerUnits reads the energy counter behind a handle the way
// PMT does (nvmlDeviceGetTotalEnergyConsumption): whole millijoules, read
// at the device's time.
func TestEnergyAndPowerUnits(t *testing.T) {
	h := handle(t)
	sim := h.GPU()
	sim.SetApplicationClocks(0, 1410)
	sim.Idle(2) // 2 s at idle power
	st := pmt.NewNVML(h).Read()
	mj := st.EnergyJ * 1000
	if r := math.Round(mj); math.Abs(mj-r) > 1e-6 {
		t.Errorf("energy %v mJ is not a whole millijoule count", mj)
	}
	wantMJ := sim.Spec().IdlePowerW * 2 * 1000
	if mj < wantMJ-1 || mj > wantMJ+1 {
		t.Errorf("energy %v mJ, want ~%v", mj, wantMJ)
	}
	if st.TimeS != sim.Now() {
		t.Errorf("energy read at %v s, device at %v s", st.TimeS, sim.Now())
	}
}

// TestName: the device behind a handle is the A100-SXM4-80GB
// (nvmlDeviceGetName), and PMT names its sensor after it.
func TestName(t *testing.T) {
	h := handle(t)
	if name := h.GPU().Spec().Name; name != "NVIDIA A100-SXM4-80GB" {
		t.Errorf("Name = %q", name)
	}
	if name := pmt.NewNVML(h).Name(); name != "nvml:NVIDIA A100-SXM4-80GB" {
		t.Errorf("sensor name = %q", name)
	}
}
