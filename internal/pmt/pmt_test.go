package pmt

import (
	"math"
	"strings"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/nvml"
	"sphenergy/internal/rapl"
	"sphenergy/internal/rsmi"
)

func TestStateArithmetic(t *testing.T) {
	start := State{TimeS: 1, EnergyJ: 100}
	end := State{TimeS: 3, EnergyJ: 500}
	if Joules(start, end) != 400 {
		t.Errorf("Joules = %v", Joules(start, end))
	}
	if Seconds(start, end) != 2 {
		t.Errorf("Seconds = %v", Seconds(start, end))
	}
	if Watts(start, end) != 200 {
		t.Errorf("Watts = %v", Watts(start, end))
	}
	if Watts(start, start) != 0 {
		t.Error("zero-window Watts should be 0")
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
	if math.Abs(Seconds(before, after)-2) > 1e-9 {
		t.Errorf("measured %v s, want 2", Seconds(before, after))
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

func TestRAPLBackend(t *testing.T) {
	cpu := &cluster.CPU{Model: cluster.CPUModel{IdleW: 100, MaxW: 200}}
	iface := rapl.New(cpu)
	rd, _ := iface.NewReader(0)
	s := NewRAPL(rd, cpu, 0)
	before := s.Read()
	cpu.Advance(2, 0.5) // 2 s at 150 W
	after := s.Read()
	if math.Abs(Joules(before, after)-300) > 0.01 {
		t.Errorf("measured %v J, want 300", Joules(before, after))
	}
	if math.Abs(Watts(before, after)-150) > 0.1 {
		t.Errorf("measured %v W, want 150", Watts(before, after))
	}
}

func TestCrayBackends(t *testing.T) {
	node := cluster.NewNode(cluster.LUMIG(), 0)
	sensors := map[CrayComponent]Sensor{
		CrayNode:   NewCray(node, CrayNode, 0),
		CrayCPU:    NewCray(node, CrayCPU, 0),
		CrayMemory: NewCray(node, CrayMemory, 0),
		CrayAccel:  NewCray(node, CrayAccel, 1),
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

func TestMultiAggregates(t *testing.T) {
	devA := gpusim.NewDevice(gpusim.A100SXM480GB(), 0)
	devB := gpusim.NewDevice(gpusim.A100SXM480GB(), 1)
	libA, _ := nvml.New([]*gpusim.Device{devA})
	libA.Init()
	hA, _ := libA.DeviceGetHandleByIndex(0)
	libB, _ := nvml.New([]*gpusim.Device{devB})
	libB.Init()
	hB, _ := libB.DeviceGetHandleByIndex(0)
	m := NewMulti("pair", NewNVML(hA), NewNVML(hB))
	before := m.Read()
	devA.SetApplicationClocks(0, 1410)
	devB.SetApplicationClocks(0, 1410)
	devA.Idle(1)
	devB.Idle(3)
	after := m.Read()
	want := devA.Spec().IdlePowerW * 4
	if math.Abs(Joules(before, after)-want) > 1 {
		t.Errorf("multi measured %v J, want ~%v", Joules(before, after), want)
	}
	// Timestamp follows the furthest-advanced sensor.
	if math.Abs(after.TimeS-3) > 1e-9 {
		t.Errorf("multi time %v, want 3", after.TimeS)
	}
	if m.Name() != "pair" {
		t.Error("multi name")
	}
}

func TestSeriesSamplingAndStats(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.A100PCIE40GB(), 0)
	lib, _ := nvml.New([]*gpusim.Device{dev})
	lib.Init()
	h, _ := lib.DeviceGetHandleByIndex(0)
	s := NewSeries(NewNVML(h))

	dev.SetApplicationClocks(0, 1410)
	dev.Idle(1) // idle power interval
	s.Sample()
	dev.Execute(gpusim.KernelDesc{Name: "k", Items: 50e6, FlopsPerItem: 30000, BytesPerItem: 600, EffFactor: 0.5})
	s.Sample()

	if s.Len() != 3 {
		t.Fatalf("%d samples", s.Len())
	}
	mean, min, max, ok := s.PowerStats()
	if !ok {
		t.Fatal("no stats")
	}
	idleW := dev.Spec().IdlePowerW
	if math.Abs(min-idleW) > 1 {
		t.Errorf("min power %v, want idle %v", min, idleW)
	}
	if max <= min || mean <= min || mean >= max {
		t.Errorf("stats ordering: mean %v min %v max %v", mean, min, max)
	}
	if s.TotalJoules() <= 0 || s.Duration() <= 0 {
		t.Error("totals empty")
	}
	if !strings.Contains(s.String(), "samples") {
		t.Errorf("String() = %q", s.String())
	}
	if len(s.States()) != 3 {
		t.Error("States copy wrong length")
	}
}

func TestSeriesDegenerate(t *testing.T) {
	s := NewSeries(Dummy{})
	if s.TotalJoules() != 0 || s.Duration() != 0 {
		t.Error("single-sample series should report zero totals")
	}
	if _, _, _, ok := s.PowerStats(); ok {
		t.Error("stats from a degenerate series")
	}
}
