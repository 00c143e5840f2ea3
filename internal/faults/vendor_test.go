package faults

import (
	"math"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/nvml"
	"sphenergy/internal/pmt"
	"sphenergy/internal/rsmi"
)

// The wrappers over the paths a run builds: the NVML and ROCm-SMI sensors,
// the device setter, and ManDyn through a ResilientSetter. Each
// device starts at t=0 and is advanced one second between reads, into the
// next fault window.

func TestNVMLSensorDegradesUnderFaults(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.A100SXM480GB(), 0)
	lib, _ := nvml.New([]*gpusim.Device{dev})
	lib.Init()
	h, _ := lib.DeviceGetHandleByIndex(0)
	plan := &Plan{Seed: 1, Rules: []Rule{
		{Kind: Transient, Target: TargetSensor, StartS: 1, EndS: 2},
		{Kind: Stuck, Target: TargetSensor, StartS: 2, EndS: 3},
	}}
	s := plan.Injector(TargetSensor, 0).Sensor(pmt.NewNVML(h), dev.Now)

	good := s.Read() // healthy read primes the cache
	dev.Idle(1)

	nan := s.Read()
	if !math.IsNaN(nan.EnergyJ) {
		t.Fatalf("transient fault: EnergyJ = %v, want NaN", nan.EnergyJ)
	}
	if nan.TimeS != dev.Now() || nan.TimeS <= good.TimeS {
		t.Fatalf("transient fault should carry the device's current timestamp %v, got %v", dev.Now(), nan.TimeS)
	}
	dev.Idle(1)

	stuck := s.Read()
	if stuck != good {
		t.Fatalf("stuck fault: %+v, want replay of last good %+v", stuck, good)
	}
	dev.Idle(1)

	rec := s.Read()
	if math.IsNaN(rec.EnergyJ) || rec.EnergyJ <= good.EnergyJ {
		t.Fatalf("recovered read = %+v, want fresh state past %+v", rec, good)
	}
}

func TestNVMLSensorStuckBeforeFirstGoodRead(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.A100SXM480GB(), 0)
	lib, _ := nvml.New([]*gpusim.Device{dev})
	lib.Init()
	h, _ := lib.DeviceGetHandleByIndex(0)
	plan := &Plan{Seed: 1, Rules: []Rule{{Kind: Stuck, Target: TargetSensor}}}
	s := plan.Injector(TargetSensor, 0).Sensor(pmt.NewNVML(h), dev.Now)
	if st := s.Read(); !math.IsNaN(st.EnergyJ) {
		t.Fatalf("stuck with empty cache should be NaN, got %+v", st)
	}
}

func TestRSMISensorDegradesUnderFaults(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.MI250XGCD(), 0)
	lib, _ := rsmi.New([]*gpusim.Device{dev})
	plan := &Plan{Seed: 1, Rules: []Rule{
		{Kind: Stuck, Target: TargetSensor, StartS: 1, EndS: 2},
		{Kind: Transient, Target: TargetSensor, StartS: 2, EndS: 3},
	}}
	s := plan.Injector(TargetSensor, 0).Sensor(pmt.NewRSMI(lib, 0), dev.Now)
	good := s.Read()
	dev.Idle(1)
	if st := s.Read(); st != good {
		t.Fatalf("stuck fault: %+v, want %+v", st, good)
	}
	dev.Idle(1)
	if st := s.Read(); !math.IsNaN(st.EnergyJ) || st.TimeS != dev.Now() {
		t.Fatalf("transient fault: %+v, want NaN at the device's current timestamp %v", st, dev.Now())
	}
	dev.Idle(1)
	if st := s.Read(); st.EnergyJ <= good.EnergyJ {
		t.Fatalf("recovery read %+v not past %+v", st, good)
	}
}

// TestRSMIClockSetClampedByHook clamps LUMI-G's clock sets at 1333 MHz,
// between two 50 MHz steps: the injector lowers the request to the ceiling
// and the device snaps it to the nearest supported clock, 1350 MHz, the one
// ROCm-SMI's frequency-index search picks too.
func TestRSMIClockSetClampedByHook(t *testing.T) {
	dev := gpusim.NewDevice(cluster.LUMIG().GPUSpec, 0)
	plan := &Plan{Seed: 1, Rules: []Rule{
		{Kind: ClampedClock, Target: TargetClock, MHz: 1333},
	}}
	s := plan.Injector(TargetClock, 0).Setter(freqctl.DeviceSetter{Dev: dev}, dev.Now)
	for _, req := range []int{s.MaxSMClock(), 1400, 1333} {
		applied, err := s.SetSMClock(req)
		if err != nil {
			t.Fatalf("SetSMClock(%d): %v", req, err)
		}
		if applied != 1350 || dev.SMClockMHz() != 1350 {
			t.Fatalf("SetSMClock(%d) under a 1333 MHz clamp applied %d, device at %d, want 1350", req, applied, dev.SMClockMHz())
		}
	}
	// A request under the ceiling passes through unclamped.
	if applied, err := s.SetSMClock(1000); err != nil || applied != 1000 {
		t.Fatalf("SetSMClock(1000) = %d, %v, want 1000", applied, err)
	}
}

func TestManDynWithResilientSetterUnderFaultPlan(t *testing.T) {
	// End-to-end: ManDyn through a ResilientSetter over a simulated A100
	// with an injected clamped-clock window. The strategy must converge (no
	// set storm) and leave the device at the achieved clock.
	dev := gpusim.NewDevice(gpusim.A100SXM480GB(), 0)
	s := freqctl.DeviceSetter{Dev: dev}
	plan := &Plan{Seed: 3, Rules: []Rule{
		{Kind: ClampedClock, Target: TargetClock, MHz: 900},
	}}
	r := freqctl.NewResilientSetter(plan.Injector(TargetClock, 0).Setter(s, dev.Now))
	m := &freqctl.ManDyn{Table: map[string]int{"momentum": 1005}}
	if err := m.Setup(r); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := m.Apply(r, "momentum"); err != nil {
			t.Fatal(err)
		}
	}
	// 900 is not in the A100 table; the device snaps to the nearest
	// supported application clock at or below the injector's ceiling.
	if applied := dev.SMClockMHz(); applied >= 1005 || applied <= 0 {
		t.Fatalf("device at %d MHz, want clamped below request", applied)
	}
	if st := r.Stats(); st.Clamped == 0 {
		t.Fatalf("clamp not observed: %+v", st)
	}
}
