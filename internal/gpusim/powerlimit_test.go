package gpusim

import (
	"math"
	"testing"
)

func TestPowerLimitDefaults(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	if d.PowerLimitW() != d.Spec().TDPW {
		t.Errorf("default limit %v, want TDP %v", d.PowerLimitW(), d.Spec().TDPW)
	}
}

func TestSetPowerLimitRange(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	if err := d.SetPowerLimit(250); err != nil {
		t.Fatal(err)
	}
	if d.PowerLimitW() != 250 {
		t.Errorf("limit %v", d.PowerLimitW())
	}
	if err := d.SetPowerLimit(10); err == nil {
		t.Error("below-idle limit accepted")
	}
	if err := d.SetPowerLimit(9999); err == nil {
		t.Error("above-TDP limit accepted")
	}
	d.ResetPowerLimit()
	if d.PowerLimitW() != d.Spec().TDPW {
		t.Error("reset did not restore TDP")
	}
}

// TestSetPowerLimitRejectsNaN: NaN lies outside every range, so a NaN cap
// is refused and leaves the cap in force and a capped launch as they were.
func TestSetPowerLimitRejectsNaN(t *testing.T) {
	d, twin := NewDevice(A100SXM480GB(), 0), NewDevice(A100SXM480GB(), 0)
	for _, dev := range []*Device{d, twin} {
		if _, err := dev.SetApplicationClocks(0, 1410); err != nil {
			t.Fatal(err)
		}
		if err := dev.SetPowerLimit(250); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.SetPowerLimit(math.NaN()); err == nil {
		t.Error("NaN power limit accepted")
	}
	if got := d.PowerLimitW(); got != 250 {
		t.Errorf("limit after a NaN cap %v, want 250", got)
	}
	k := computeKernel()
	if got, want := d.Launch(&k), twin.Launch(&k); got != want || d.lastPowerW != twin.lastPowerW || d.SMClockMHz() != twin.SMClockMHz() {
		t.Errorf("capped launch after a NaN cap took %v s at %v W, %d MHz; without it %v s at %v W, %d MHz",
			got, d.lastPowerW, d.SMClockMHz(), want, twin.lastPowerW, twin.SMClockMHz())
	}
}

func TestPowerCapDeratesClockAndPower(t *testing.T) {
	k := computeKernel()
	// Uncapped reference at locked max clocks.
	ref := NewDevice(A100SXM480GB(), 0)
	ref.SetApplicationClocks(0, 1410)
	refDur := ref.Execute(k)
	refPower := ref.lastPowerW

	capped := NewDevice(A100SXM480GB(), 0)
	capped.SetApplicationClocks(0, 1410)
	limit := refPower * 0.75
	if err := capped.SetPowerLimit(limit); err != nil {
		t.Fatal(err)
	}
	dur := capped.Execute(k)
	if p := capped.lastPowerW; p > limit+1e-9 {
		t.Errorf("capped power %v exceeds limit %v", p, limit)
	}
	if dur <= refDur {
		t.Error("capped kernel should run longer (derated clock)")
	}
}

func TestPowerCapNoEffectWhenHeadroom(t *testing.T) {
	k := memKernel() // draws far below TDP
	free := NewDevice(A100SXM480GB(), 0)
	free.SetApplicationClocks(0, 1410)
	freeDur := free.Execute(k)

	capped := NewDevice(A100SXM480GB(), 0)
	capped.SetApplicationClocks(0, 1410)
	capped.SetPowerLimit(350) // above this kernel's draw
	if dur := capped.Execute(k); dur != freeDur {
		t.Errorf("cap with headroom changed duration: %v vs %v", dur, freeDur)
	}
}

func TestPowerCapUnderGovernor(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0) // auto mode
	if err := d.SetPowerLimit(150); err != nil {
		t.Fatal(err)
	}
	d.Execute(computeKernel())
	d.Execute(computeKernel())
	// Under a tight cap the governor cannot hold max clocks.
	if got := d.SMClockMHz(); got >= 1410 {
		t.Errorf("governor clock %d under a 150 W cap, want derated", got)
	}
	if p := d.lastPowerW; p > 150+1e-9 {
		t.Errorf("governor power %v exceeds the cap", p)
	}
}

func TestEnergyVsPowerCapTradeoff(t *testing.T) {
	// Capping power on a compute kernel saves energy like down-clocking
	// does — the knobs are two views of the same derating.
	k := computeKernel()
	run := func(limit float64) (timeS, energyJ float64) {
		d := NewDevice(A100SXM480GB(), 0)
		d.SetApplicationClocks(0, 1410)
		if limit > 0 {
			if err := d.SetPowerLimit(limit); err != nil {
				t.Fatal(err)
			}
		}
		e0 := d.EnergyJ()
		dt := d.Execute(k)
		return dt, d.EnergyJ() - e0
	}
	tFree, eFree := run(0)
	tCap, eCap := run(220)
	if eCap >= eFree {
		t.Errorf("capped energy %v not below uncapped %v", eCap, eFree)
	}
	if tCap <= tFree {
		t.Error("capped run should be slower")
	}
}
