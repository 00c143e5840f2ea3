package pmt

import (
	"math"
	"testing"

	"sphenergy/internal/faults"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/nvml"
	"sphenergy/internal/rsmi"
)

// scriptedHook fails reads according to a per-call script of errors.
func scriptedHook(script []error) func(op string, arg int) (int, error) {
	i := 0
	return func(op string, arg int) (int, error) {
		var err error
		if i < len(script) {
			err = script[i]
		}
		i++
		return arg, err
	}
}

func TestNVMLSensorDegradesUnderFaults(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.A100SXM480GB(), 0)
	lib, _ := nvml.New([]*gpusim.Device{dev})
	lib.Init()
	h, _ := lib.DeviceGetHandleByIndex(0)
	s := NewNVML(h)

	good := s.Read() // healthy read primes the cache
	dev.Idle(1)

	lib.SetFaultHook(scriptedHook([]error{faults.ErrTransient, faults.ErrStuck, nil}))

	nan := s.Read()
	if !math.IsNaN(nan.EnergyJ) {
		t.Fatalf("transient fault: EnergyJ = %v, want NaN", nan.EnergyJ)
	}
	if nan.TimeS != dev.Now() || nan.TimeS <= good.TimeS {
		t.Fatalf("transient fault should carry the device's current timestamp %v, got %v", dev.Now(), nan.TimeS)
	}

	stuck := s.Read()
	if stuck != good {
		t.Fatalf("stuck fault: %+v, want replay of last good %+v", stuck, good)
	}

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
	s := NewNVML(h)
	lib.SetFaultHook(scriptedHook([]error{faults.ErrStuck}))
	if st := s.Read(); !math.IsNaN(st.EnergyJ) {
		t.Fatalf("stuck with empty cache should be NaN, got %+v", st)
	}
}

func TestRSMISensorDegradesUnderFaults(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.MI250XGCD(), 0)
	lib, _ := rsmi.New([]*gpusim.Device{dev})
	s := NewRSMI(lib, 0)
	good := s.Read()
	dev.Idle(1)
	lib.SetFaultHook(scriptedHook([]error{faults.ErrStuck, faults.ErrTransient}))
	if st := s.Read(); st != good {
		t.Fatalf("stuck fault: %+v, want %+v", st, good)
	}
	if st := s.Read(); !math.IsNaN(st.EnergyJ) || st.TimeS != dev.Now() {
		t.Fatalf("transient fault: %+v, want NaN at the device's current timestamp %v", st, dev.Now())
	}
	lib.SetFaultHook(nil)
	if st := s.Read(); st.EnergyJ <= good.EnergyJ {
		t.Fatalf("recovery read %+v not past %+v", st, good)
	}
}

func TestRSMIClockSetClampedByHook(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.MI250XGCD(), 0)
	lib, _ := rsmi.New([]*gpusim.Device{dev})
	plan := &faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Kind: faults.ClampedClock, Target: faults.TargetClock, MHz: 1000},
	}}
	lib.SetFaultHook(rsmi.FaultHook(plan.Injector(faults.TargetClock, 0).ClockHook(dev.Now)))
	table := dev.Spec().SupportedClocksMHz()
	// Pick the highest table entry; the hook clamps it to <=1000 and the
	// set must land on the nearest supported clock to the clamp.
	applied, err := lib.DevGPUClkFreqSet(0, 0)
	if err != nil {
		t.Fatalf("DevGPUClkFreqSet: %v", err)
	}
	if applied > table[0] && table[0] > 1000 {
		t.Fatalf("applied %d MHz despite 1000 MHz clamp", applied)
	}
	best, bestDiff := table[0], 1<<30
	for _, f := range table {
		d := f - 1000
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			best, bestDiff = f, d
		}
	}
	if table[0] > 1000 && applied != best {
		t.Fatalf("applied %d, want nearest supported to clamp = %d", applied, best)
	}
}
