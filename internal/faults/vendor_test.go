package faults

import (
	"math"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/pmt"
)

// The fault paths a run builds: the GPU sensor on an Nvidia and an AMD
// device, and a clock set's draw ahead of an AMD device.
// Each device starts at t=0 and is advanced one second between reads, into
// the next fault window.

func TestNVMLSensorDegradesUnderFaults(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.A100SXM480GB(), 0)
	plan := &Plan{Seed: 1, Rules: []Rule{
		{Kind: Transient, Target: TargetSensor, StartS: 1, EndS: 2},
		{Kind: Stuck, Target: TargetSensor, StartS: 2, EndS: 3},
	}}
	s := plan.Injector(TargetSensor, 0).Sensor(pmt.NewGPU(dev), dev.Now)

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
	plan := &Plan{Seed: 1, Rules: []Rule{{Kind: Stuck, Target: TargetSensor}}}
	s := plan.Injector(TargetSensor, 0).Sensor(pmt.NewGPU(dev), dev.Now)
	if st := s.Read(); !math.IsNaN(st.EnergyJ) {
		t.Fatalf("stuck with empty cache should be NaN, got %+v", st)
	}
}

func TestRSMISensorDegradesUnderFaults(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.MI250XGCD(), 0)
	plan := &Plan{Seed: 1, Rules: []Rule{
		{Kind: Stuck, Target: TargetSensor, StartS: 1, EndS: 2},
		{Kind: Transient, Target: TargetSensor, StartS: 2, EndS: 3},
	}}
	s := plan.Injector(TargetSensor, 0).Sensor(pmt.NewGPU(dev), dev.Now)
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
	in := plan.Injector(TargetClock, 0)
	set := func(req int) (int, error) {
		mhz, err := in.ClockSet(dev.Now(), req)
		if err != nil {
			return 0, err
		}
		return dev.SetApplicationClocks(0, mhz)
	}
	for _, req := range []int{dev.Spec().MaxSMClockMHz, 1400, 1333} {
		applied, err := set(req)
		if err != nil {
			t.Fatalf("set %d: %v", req, err)
		}
		if applied != 1350 || dev.SMClockMHz() != 1350 {
			t.Fatalf("set %d under a 1333 MHz clamp applied %d, device at %d, want 1350", req, applied, dev.SMClockMHz())
		}
	}
	// A request under the ceiling passes through unclamped.
	if applied, err := set(1000); err != nil || applied != 1000 {
		t.Fatalf("set 1000 = %d, %v, want 1000", applied, err)
	}
}
