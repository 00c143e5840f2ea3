package pmt

import (
	"math"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/nvml"
	"sphenergy/internal/pmcounters"
)

func TestStateArithmetic(t *testing.T) {
	start := State{TimeS: 1, EnergyJ: 100}
	end := State{TimeS: 3, EnergyJ: 500}
	if Joules(start, end) != 400 {
		t.Errorf("Joules = %v", Joules(start, end))
	}
	if Joules(start, start) != 0 {
		t.Error("zero-window Joules should be 0")
	}
}

// TestGPUSensorReadsTheVendorCounter holds NewGPU bit for bit to the
// counters PMT's vendor back-ends read — NVML's whole millijoules (int64),
// ROCm-SMI's whole microjoules (uint64), each converted back to joules —
// and to the device time EnergyAt reports with them. The energies sit one
// ulp of idle time either side of 0, of one and of seven counter units,
// and of 1.5 J and 1e9 J. An AMD sensor is "rocm:0" whatever its device's
// index.
func TestGPUSensorReadsTheVendorCounter(t *testing.T) {
	for _, v := range []struct {
		spec  gpusim.Spec
		name  string
		unitJ float64
		count func(j float64) float64
	}{
		{gpusim.A100SXM480GB(), "nvml:NVIDIA A100-SXM4-80GB", 1e-3,
			func(j float64) float64 { return float64(int64(j*1000)) / 1000 }},
		{gpusim.MI250XGCD(), "rocm:0", 1e-6,
			func(j float64) float64 { return float64(uint64(j*1e6)) / 1e6 }},
	} {
		for _, target := range []float64{0, v.unitJ, 7 * v.unitJ, 1.5, 1e9} {
			s0 := target / v.spec.IdlePowerW
			for _, s := range []float64{math.Nextafter(s0, 0), s0, math.Nextafter(s0, 1e300)} {
				dev := gpusim.NewDevice(v.spec, 3)
				if _, err := dev.SetApplicationClocks(0, v.spec.MaxSMClockMHz); err != nil {
					t.Fatal(err)
				}
				dev.Idle(s)
				sensor := NewGPU(dev)
				if sensor.Name() != v.name {
					t.Errorf("Name = %q, want %q", sensor.Name(), v.name)
				}
				got := sensor.Read()
				now, j := dev.EnergyAt()
				if want := (State{TimeS: now, EnergyJ: v.count(j)}); got != want {
					t.Errorf("%s at %v J: read %+v, want %+v", v.name, j, got, want)
				}
				if math.Abs(j-got.EnergyJ) > v.unitJ+j*1e-15 {
					t.Errorf("%s at %v J: read %v J, more than one counter unit off", v.name, j, got.EnergyJ)
				}
			}
		}
	}
}

// TestNVMLBackend: the sensor over an NVML handle is the GPU sensor over
// the handle's device, and measures an idle stretch's time and energy.
func TestNVMLBackend(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.A100SXM480GB(), 0)
	lib, _ := nvml.New([]*gpusim.Device{dev})
	lib.Init()
	h, _ := lib.DeviceGetHandleByIndex(0)
	s := NewNVML(h)
	before := s.Read()
	dev.SetApplicationClocks(0, 1410)
	dev.Idle(2)
	after := s.Read()
	if g := NewGPU(dev); s.Name() != g.Name() || after != g.Read() {
		t.Errorf("NVML handle's sensor %q reads %+v, the device's %q reads %+v", s.Name(), after, g.Name(), g.Read())
	}
	wantJ := dev.Spec().IdlePowerW * 2
	if math.Abs(Joules(before, after)-wantJ) > 1 {
		t.Errorf("measured %v J, want ~%v", Joules(before, after), wantJ)
	}
	if math.Abs(after.TimeS-before.TimeS-2) > 1e-9 {
		t.Errorf("measured %v s, want 2", after.TimeS-before.TimeS)
	}
}

func TestRSMIBackend(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.MI250XGCD(), 0)
	s := NewGPU(dev)
	before := s.Read()
	dev.SetApplicationClocks(0, 1700)
	dev.Idle(1)
	after := s.Read()
	wantJ := dev.Spec().IdlePowerW
	if math.Abs(Joules(before, after)-wantJ) > 1 {
		t.Errorf("measured %v J, want ~%v", Joules(before, after), wantJ)
	}
}

func TestCrayBackends(t *testing.T) {
	node := cluster.NewNode(cluster.LUMIG())
	pc := pmcounters.New(node)
	sensors := map[CrayComponent]Sensor{
		CrayNode:  NewCrayOn(pc, node, CrayNode, 0),
		CrayAccel: NewCrayOn(pc, node, CrayAccel, 1),
	}
	before := map[CrayComponent]State{}
	for c, s := range sensors {
		before[c] = s.Read()
	}
	for _, d := range node.Devices {
		d.Idle(1)
	}
	node.AdvanceHost(1, 0.5, 0.5)
	for c, s := range sensors {
		delta := Joules(before[c], s.Read())
		if delta <= 0 {
			t.Errorf("%s sensor measured %v J, want > 0", s.Name(), delta)
		}
		_ = c
	}
	// Accel sensor covers one card = 2 GCDs.
	accel := sensors[CrayAccel].Read()
	want := node.Devices[2].EnergyJ() + node.Devices[3].EnergyJ()
	if math.Abs(accel.EnergyJ-want) > 1e-6 {
		t.Errorf("accel1 sensor %v, want %v", accel.EnergyJ, want)
	}
}
