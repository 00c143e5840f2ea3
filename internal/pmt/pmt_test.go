package pmt

import (
	"math"
	"strings"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/nvml"
	"sphenergy/internal/pmcounters"
	"sphenergy/internal/rsmi"
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

func TestNVMLBackend(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.A100SXM480GB(), 0)
	lib, _ := nvml.New([]*gpusim.Device{dev})
	lib.Init()
	h, _ := lib.DeviceGetHandleByIndex(0)
	s := NewNVML(h)
	if !strings.HasPrefix(s.Name(), "nvml:") {
		t.Errorf("Name = %q", s.Name())
	}
	before := s.Read()
	dev.SetApplicationClocks(0, 1410)
	dev.Idle(2)
	after := s.Read()
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
	lib, _ := rsmi.New([]*gpusim.Device{dev})
	s := NewRSMI(lib, 0)
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
		CrayNode:   NewCrayOn(pc, node, CrayNode, 0),
		CrayCPU:    NewCrayOn(pc, node, CrayCPU, 0),
		CrayMemory: NewCrayOn(pc, node, CrayMemory, 0),
		CrayAccel:  NewCrayOn(pc, node, CrayAccel, 1),
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

func TestDummy(t *testing.T) {
	var d Dummy
	if d.Name() != "dummy" {
		t.Error("dummy name")
	}
	if s := d.Read(); s.EnergyJ != 0 || s.TimeS != 0 {
		t.Error("dummy should read zero")
	}
}
