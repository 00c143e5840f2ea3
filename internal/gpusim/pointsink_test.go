package gpusim

import (
	"math"
	"testing"
)

// TestTraceRecordsKernels holds the device to one point per accounted
// interval and per application-clock operation, in time order, labelled by
// what it closes: the points' power over the intervals they close adds up to
// the device's energy, and a locked compute kernel reads the locked clock.
func TestTraceRecordsKernels(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	var got []TracePoint
	d.SetPointSink(func(p TracePoint) { got = append(got, p) })
	d.SetApplicationClocks(0, 1410)
	d.Execute(computeKernel())
	d.Idle(0.05)
	if len(got) != 3 || got[0].Kernel != "set-app-clocks" || got[1].Kernel != "compute" || got[2].Kernel != "" {
		t.Fatalf("locked run sent %+v, want set-app-clocks, compute, idle", got)
	}
	if got[1].ClockMHz != 1410 {
		t.Errorf("locked compute kernel at %d MHz, want 1410", got[1].ClockMHz)
	}
	// Under the governor, idle decays the clock in substeps: a point each.
	d.ResetApplicationClocks()
	d.Execute(memKernel())
	d.Idle(0.2)
	prev, energy := 0.0, 0.0
	for i, p := range got {
		if p.TimeS < prev {
			t.Fatalf("point %d at %v s after one at %v s", i, p.TimeS, prev)
		}
		energy += p.PowerW * (p.TimeS - prev)
		prev = p.TimeS
	}
	if prev != d.Now() || math.Abs(energy-d.EnergyJ()) > 1e-9*d.EnergyJ() {
		t.Errorf("points end at %v s with %v J, device at %v s with %v J", prev, energy, d.Now(), d.EnergyJ())
	}
}

// TestTraceSinkForwardsLive holds the device to sending each point as it
// happens, to the sink installed at that moment: a sink set mid-run gets
// only what follows, a removed sink gets nothing, and with no sink a launch
// or an idle allocates nothing.
func TestTraceSinkForwardsLive(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	d.Execute(computeKernel())
	var got []TracePoint
	d.SetPointSink(func(p TracePoint) { got = append(got, p) })
	k := memKernel()
	d.Launch(&k)
	if len(got) != 1 || got[0].Kernel != k.Name || got[0].TimeS != d.Now() {
		t.Fatalf("sink set after one kernel received %+v, want one %q point at %v s", got, k.Name, d.Now())
	}

	d.SetPointSink(nil)
	n, c := len(got), computeKernel()
	allocs := testing.AllocsPerRun(100, func() { d.Launch(&c); d.Idle(0.01) })
	if allocs != 0 || len(got) != n {
		t.Errorf("with no sink: %v allocations a run, %d points", allocs, len(got)-n)
	}
}
