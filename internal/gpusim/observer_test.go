package gpusim

import (
	"testing"
)

// observerRecorder captures device observer callbacks.
type observerRecorder struct {
	kernels []string
	clocks  []int
	causes  []string
}

func (o *observerRecorder) KernelLaunched(name string, startS, durS float64, clockMHz int, energyJ float64) {
	o.kernels = append(o.kernels, name)
	if durS <= 0 || energyJ <= 0 {
		panic("non-positive kernel duration/energy")
	}
}

func (o *observerRecorder) ClockChanged(timeS float64, clockMHz int, cause string) {
	o.clocks = append(o.clocks, clockMHz)
	o.causes = append(o.causes, cause)
}

func TestDeviceObserver(t *testing.T) {
	dev := NewDevice(A100SXM480GB(), 0)
	rec := &observerRecorder{}
	dev.SetObserver(rec)

	if _, err := dev.SetApplicationClocks(0, 1005); err != nil {
		t.Fatal(err)
	}
	dev.Execute(computeKernel())
	dev.Idle(0.01) // idle is not a kernel launch
	dev.ResetApplicationClocks()

	if len(rec.kernels) != 1 || rec.kernels[0] != "compute" {
		t.Errorf("kernel events = %v", rec.kernels)
	}
	if len(rec.clocks) != 2 || rec.clocks[0] != 1005 {
		t.Errorf("clock events = %v", rec.clocks)
	}
	if rec.causes[0] != "set-app-clocks" || rec.causes[1] != "reset-app-clocks" {
		t.Errorf("causes = %v", rec.causes)
	}

	dev.SetObserver(nil)
	dev.Execute(computeKernel())
	if len(rec.kernels) != 1 {
		t.Error("removed observer still called")
	}
}
