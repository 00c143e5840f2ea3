package gpusim

import (
	"math"
	"testing"
)

func TestGovernorBoostsOnKernel(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0) // starts in auto mode at idle clock
	if d.SMClockMHz() != d.Spec().IdleSMClockMHz {
		t.Fatalf("initial clock %d, want idle %d", d.SMClockMHz(), d.Spec().IdleSMClockMHz)
	}
	d.Execute(computeKernel())
	if d.SMClockMHz() < 1200 {
		t.Errorf("clock after compute kernel %d, want boosted", d.SMClockMHz())
	}
}

func TestGovernorComputeKernelReachesMax(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	// A long compute-heavy kernel must pull the clock to the maximum —
	// the MomentumEnergy pattern of Fig. 9.
	d.Execute(computeKernel())
	d.Execute(computeKernel())
	if got := d.SMClockMHz(); got < d.Spec().MaxSMClockMHz-5 {
		t.Errorf("clock %d, want ~%d", got, d.Spec().MaxSMClockMHz)
	}
}

func TestGovernorHoldThenDecay(t *testing.T) {
	s := A100SXM480GB()
	d := NewDevice(s, 0)
	d.Execute(computeKernel())
	boosted := d.SMClockMHz()
	// Within the hold window the clock stays up.
	d.Idle(s.BoostHoldS / 2)
	if got := d.SMClockMHz(); got < boosted-5 {
		t.Errorf("clock dropped during boost hold: %d -> %d", boosted, got)
	}
	// Far beyond hold + several decay constants, it parks near idle.
	d.Idle(s.BoostHoldS + 10*s.IdleDecayS)
	if got := d.SMClockMHz(); got > s.IdleSMClockMHz+60 {
		t.Errorf("clock %d did not decay toward idle %d", got, s.IdleSMClockMHz)
	}
}

func TestGovernorLightKernelsBoostAboveNeed(t *testing.T) {
	// The paper's §IV-E observation: lightweight launches boost clocks the
	// kernels cannot use. A tiny memory-bound kernel still raises the clock
	// far above idle.
	d := NewDevice(A100SXM480GB(), 0)
	light := KernelDesc{Name: "light", Items: 1e5, FlopsPerItem: 5, BytesPerItem: 200, Launches: 32, EffFactor: 0.5}
	for i := 0; i < 20; i++ {
		d.Execute(light)
	}
	got := d.SMClockMHz()
	if got < 900 {
		t.Errorf("light-kernel storm clock %d, want boosted well above idle", got)
	}
	if got > 1380 {
		t.Errorf("light-kernel storm clock %d reached near-max; governor should distinguish it from compute kernels", got)
	}
}

func TestDVFSEnergyPenaltyOnLightKernelStorm(t *testing.T) {
	// Same workload, locked max clocks vs governor: the governor's boost
	// hold and stability margin make it spend more energy on a stream of
	// light kernels separated by idle gaps.
	light := KernelDesc{Name: "light", Items: 5e5, FlopsPerItem: 10, BytesPerItem: 100, Launches: 16, EffFactor: 0.5}
	run := func(lock bool) float64 {
		d := NewDevice(A100SXM480GB(), 0)
		if lock {
			d.SetApplicationClocks(0, 1410)
		}
		for i := 0; i < 50; i++ {
			d.Execute(light)
			d.Idle(0.004) // launch gaps inside the boost-hold window
		}
		return d.EnergyJ()
	}
	locked := run(true)
	auto := run(false)
	if auto <= locked {
		t.Errorf("governor energy %v should exceed locked-clock energy %v on light-kernel storms", auto, locked)
	}
}

func TestMeanRampFreq(t *testing.T) {
	// T >> tau: mean approaches the target.
	m := meanRampFreq(200, 1400, 0.002, 10)
	if math.Abs(m-1400) > 1 {
		t.Errorf("long-kernel mean %v, want ~1400", m)
	}
	// T << tau: mean stays near the start.
	m = meanRampFreq(200, 1400, 0.1, 1e-4)
	if m > 210 {
		t.Errorf("short-kernel mean %v, want ~200", m)
	}
	// Zero duration returns the start.
	if meanRampFreq(300, 1400, 0.01, 0) != 300 {
		t.Error("zero-duration mean")
	}
}

func TestResetFromLockedKeepsClockContinuity(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	d.SetApplicationClocks(0, 1110)
	d.ResetApplicationClocks()
	// Governor resumes from the previously locked clock, not from idle.
	if got := d.SMClockMHz(); got != 1110 {
		t.Errorf("clock after reset %d, want 1110", got)
	}
}

func TestGovernorTargetOrdering(t *testing.T) {
	spec := A100SXM480GB()
	g := newGovernor(&spec)
	compute := computeKernel().timing(&spec)
	memory := memKernel().timing(&spec)
	if g.target(compute) <= g.target(memory) {
		t.Errorf("compute target %v should exceed memory target %v",
			g.target(compute), g.target(memory))
	}
}
