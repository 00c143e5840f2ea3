package pmt

import (
	"testing"

	"sphenergy/internal/gpusim"
	"sphenergy/internal/nvml"
	"sphenergy/internal/rsmi"
)

// trajectory records the (time, energy) the device stands at after each
// launch. KernelLaunched runs on the goroutine driving the device, the only
// one that advances it, so Now() and EnergyJ() called in turn there cannot
// straddle a launch.
type trajectory struct {
	dev    *gpusim.Device
	energy map[float64]float64 // device time → energy counter at that time
}

func (tr *trajectory) KernelLaunched(string, float64, float64, int, float64) {
	tr.energy[tr.dev.Now()] = tr.dev.EnergyJ()
}

func (tr *trajectory) ClockChanged(float64, int, string) {}

// A sensor read is a point the device went through: with one goroutine
// launching kernels and another reading the sensor — the management plane of
// gpusim's TestConcurrentManagementPlane — every State pairs a time with the
// energy counter of that same time. Timestamp and counter used to be taken
// under two holds of the device lock, and a launch landing between them gave
// a (time, joules) the device never had. Run with -race.
func TestSensorReadsAreNotTorn(t *testing.T) {
	nvmlSensor := func(dev *gpusim.Device) Sensor {
		lib, err := nvml.New([]*gpusim.Device{dev})
		if err != nil || lib.Init() != nil {
			t.Fatal(err)
		}
		h, err := lib.DeviceGetHandleByIndex(0)
		if err != nil {
			t.Fatal(err)
		}
		return NewNVML(h)
	}
	rsmiSensor := func(dev *gpusim.Device) Sensor {
		lib, err := rsmi.New([]*gpusim.Device{dev})
		if err != nil {
			t.Fatal(err)
		}
		return NewRSMI(lib, 0)
	}
	for _, c := range []struct {
		name    string
		spec    gpusim.Spec
		sensor  func(*gpusim.Device) Sensor
		counter func(joules float64) float64 // the back-end's unit conversion and back
	}{
		{"nvml", gpusim.A100SXM480GB(), nvmlSensor, func(j float64) float64 { return float64(int64(j*1000)) / 1000 }},
		{"rocm", gpusim.MI250XGCD(), rsmiSensor, func(j float64) float64 { return float64(uint64(j*1e6)) / 1e6 }},
	} {
		dev := gpusim.NewDevice(c.spec, 0)
		if _, err := dev.SetApplicationClocks(0, c.spec.MaxSMClockMHz); err != nil {
			t.Fatal(err)
		}
		traj := &trajectory{dev: dev, energy: map[float64]float64{dev.Now(): dev.EnergyJ()}}
		dev.SetObserver(traj)
		s := c.sensor(dev)

		const launches = 4000
		k := gpusim.KernelDesc{Name: "k", Items: 1e6, FlopsPerItem: 100, BytesPerItem: 100}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < launches; i++ {
				dev.Execute(k)
			}
		}()
		var reads []State
		for running := true; running; {
			select {
			case <-done:
				running = false
			default:
				reads = append(reads, s.Read())
			}
		}
		if len(traj.energy) != launches+1 {
			t.Fatalf("%s: %d trajectory points for %d launches", c.name, len(traj.energy), launches)
		}
		torn := 0
		for _, st := range reads {
			if j, ok := traj.energy[st.TimeS]; !ok || st.EnergyJ != c.counter(j) {
				if torn++; torn <= 3 {
					t.Errorf("%s: read (%v s, %v J) is not a point of the device's trajectory (at that time: %v J, known %v)",
						c.name, st.TimeS, st.EnergyJ, c.counter(j), ok)
				}
			}
		}
		if torn > 0 {
			t.Errorf("%s: %d of %d reads torn", c.name, torn, len(reads))
		}
	}
}
