package gpusim

import (
	"testing"
)

func TestTraceSinkForwardsLive(t *testing.T) {
	tr := NewTrace()
	tr.Add(TracePoint{TimeS: 0.5, ClockMHz: 1410, PowerW: 100})
	var got []TracePoint
	tr.SetSink(func(p TracePoint) { got = append(got, p) })
	tr.Add(TracePoint{TimeS: 1.0, ClockMHz: 1005, PowerW: 200, Kernel: "iad"})
	if len(got) != 1 || got[0].Kernel != "iad" {
		t.Fatalf("sink received %v", got)
	}
	// The point is also retained in the trace itself.
	if tr.Len() != 2 {
		t.Errorf("trace len = %d, want 2", tr.Len())
	}
	tr.SetSink(nil)
	tr.Add(TracePoint{TimeS: 2.0})
	if len(got) != 1 {
		t.Error("removed sink still called")
	}
}

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
