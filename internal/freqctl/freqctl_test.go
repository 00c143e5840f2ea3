package freqctl

import (
	"math"
	"strings"
	"testing"

	"sphenergy/internal/gpusim"
)

func nvidiaSetter(t *testing.T) (Setter, *gpusim.Device) {
	t.Helper()
	dev := gpusim.NewDevice(gpusim.A100SXM480GB(), 0)
	return DeviceSetter{Dev: dev}, dev
}

func amdSetter(t *testing.T) (Setter, *gpusim.Device) {
	t.Helper()
	dev := gpusim.NewDevice(gpusim.MI250XGCD(), 0)
	return DeviceSetter{Dev: dev}, dev
}

// TestSetterForBothVendors sweeps every request from one step below the
// lowest clock to one step above the highest on the A100 and the MI250X:
// each locks the device at the nearest supported clock, the higher one on a
// tie, which is the table entry NVML's snap and ROCm-SMI's index search
// both pick. A reset hands the clock back to the governor
// (nvmlDeviceResetApplicationsClocks, rsmi_dev_perf_level_set AUTO).
func TestSetterForBothVendors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		setter func(*testing.T) (Setter, *gpusim.Device)
		max    int
	}{
		{"nvidia", nvidiaSetter, 1410},
		{"amd", amdSetter, 1700},
	} {
		s, dev := tc.setter(t)
		spec := dev.Spec()
		if s.MaxSMClock() != tc.max {
			t.Errorf("%s: max clock %d, want %d", tc.name, s.MaxSMClock(), tc.max)
		}
		// The table descends, so the strict < keeps the higher of two
		// equally near clocks (1225 MHz on the MI250X lands on 1250).
		table := spec.SupportedClocksMHz()
		for mhz := spec.MinSMClockMHz - spec.SMClockStepMHz; mhz <= spec.MaxSMClockMHz+spec.SMClockStepMHz; mhz++ {
			want, wantD := table[0], 1<<30
			for _, c := range table {
				d := c - mhz
				if d < 0 {
					d = -d
				}
				if d < wantD {
					want, wantD = c, d
				}
			}
			applied, err := s.SetSMClock(mhz)
			if err != nil {
				t.Fatalf("%s: SetSMClock(%d): %v", tc.name, mhz, err)
			}
			if applied != want || dev.SMClockMHz() != want || dev.Mode() != gpusim.ModeLocked {
				t.Fatalf("%s: SetSMClock(%d) applied %d, device at %d (%v), want %d locked",
					tc.name, mhz, applied, dev.SMClockMHz(), dev.Mode(), want)
			}
		}
		// Requests far outside the table land on its ends.
		for req, want := range map[int]int{0: spec.MinSMClockMHz, 9999: spec.MaxSMClockMHz} {
			if applied, err := s.SetSMClock(req); err != nil || applied != want {
				t.Errorf("%s: SetSMClock(%d) = %d, %v; want %d", tc.name, req, applied, err, want)
			}
		}
		if err := s.ResetClocks(); err != nil {
			t.Fatal(err)
		}
		if dev.Mode() != gpusim.ModeAuto {
			t.Errorf("%s: reset did not restore auto", tc.name)
		}
	}
}

func TestBaselineLocksMax(t *testing.T) {
	s, dev := nvidiaSetter(t)
	var strat Strategy = Baseline{}
	if err := strat.Setup(s); err != nil {
		t.Fatal(err)
	}
	if dev.SMClockMHz() != 1410 || dev.Mode() != gpusim.ModeLocked {
		t.Errorf("baseline: clock %d mode %v", dev.SMClockMHz(), dev.Mode())
	}
	if err := strat.Apply(s, "MomentumEnergy"); err != nil {
		t.Fatal(err)
	}
	if dev.SMClockMHz() != 1410 {
		t.Error("baseline Apply changed the clock")
	}
	if strat.Name() != "baseline" {
		t.Error("name")
	}
}

func TestStaticLocksRequested(t *testing.T) {
	s, dev := nvidiaSetter(t)
	strat := Static{MHz: 1110}
	strat.Setup(s)
	if dev.SMClockMHz() != 1110 {
		t.Errorf("static clock %d", dev.SMClockMHz())
	}
	if strat.Name() != "static-1110" {
		t.Errorf("name %q", strat.Name())
	}
}

func TestDVFSLeavesGovernor(t *testing.T) {
	s, dev := nvidiaSetter(t)
	// Lock first, then hand to DVFS.
	s.SetSMClock(1005)
	var strat Strategy = DVFS{}
	strat.Setup(s)
	if dev.Mode() != gpusim.ModeAuto {
		t.Error("DVFS strategy left clocks locked")
	}
	if strat.Name() != "dvfs" {
		t.Error("name")
	}
}

func TestManDynSwitchesPerFunction(t *testing.T) {
	s, dev := nvidiaSetter(t)
	strat := &ManDyn{Table: map[string]int{
		"MomentumEnergy": 1410,
		"XMass":          1005,
	}}
	if err := strat.Setup(s); err != nil {
		t.Fatal(err)
	}
	strat.Apply(s, "XMass")
	if dev.SMClockMHz() != 1005 {
		t.Errorf("XMass clock %d", dev.SMClockMHz())
	}
	strat.Apply(s, "MomentumEnergy")
	if dev.SMClockMHz() != 1410 {
		t.Errorf("MomentumEnergy clock %d", dev.SMClockMHz())
	}
	// Unknown function falls back to the default (max when 0).
	strat.Apply(s, "SomethingNew")
	if dev.SMClockMHz() != 1410 {
		t.Errorf("default clock %d", dev.SMClockMHz())
	}
}

func TestManDynExplicitDefault(t *testing.T) {
	s, dev := nvidiaSetter(t)
	strat := &ManDyn{Table: map[string]int{"XMass": 1005}, Default: 1200}
	strat.Setup(s)
	if dev.SMClockMHz() != 1200 {
		t.Errorf("setup default clock %d, want 1200", dev.SMClockMHz())
	}
	strat.Apply(s, "unknown")
	if dev.SMClockMHz() != 1200 {
		t.Errorf("apply default clock %d", dev.SMClockMHz())
	}
}

// countingSetter wraps a Setter and counts SetSMClock calls.
type countingSetter struct {
	Setter
	calls int
}

func (c *countingSetter) SetSMClock(mhz int) (int, error) {
	c.calls++
	return c.Setter.SetSMClock(mhz)
}

func TestManDynSuppressesRedundantSets(t *testing.T) {
	inner, _ := nvidiaSetter(t)
	s := &countingSetter{Setter: inner}
	strat := &ManDyn{Table: map[string]int{"a": 1005, "b": 1005, "c": 1410}}
	strat.Setup(s)
	base := s.calls
	strat.Apply(s, "a") // 1410 -> 1005: one call
	strat.Apply(s, "b") // already 1005: no call
	strat.Apply(s, "a") // still 1005: no call
	strat.Apply(s, "c") // 1005 -> 1410: one call
	if got := s.calls - base; got != 2 {
		t.Errorf("SetSMClock called %d times, want 2 (redundant switches suppressed)", got)
	}
}

// TestManDynConvergesUnderClamp: a table clock between two supported
// steps (1000 MHz on the A100, which snaps to 1005) is applied as another
// clock on every set. Elision keys on the requested clock, so the set is
// issued once, not before every call, and a switch away and back still
// re-issues it.
func TestManDynConvergesUnderClamp(t *testing.T) {
	inner, dev := nvidiaSetter(t)
	s := &countingSetter{Setter: inner}
	m := &ManDyn{Table: map[string]int{"momentum": 1000}, Default: 1410}
	if err := m.Setup(s); err != nil {
		t.Fatal(err)
	}
	base := s.calls
	for i := 0; i < 5; i++ {
		if err := m.Apply(s, "momentum"); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.calls - base; got != 1 {
		t.Fatalf("snapped table clock issued %d sets over 5 applies, want 1", got)
	}
	if dev.SMClockMHz() != 1005 {
		t.Fatalf("clock left at %d MHz, want achieved 1005", dev.SMClockMHz())
	}
	if err := m.Apply(s, "other"); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(s, "momentum"); err != nil {
		t.Fatal(err)
	}
	if got := s.calls - base; got != 3 {
		t.Fatalf("function switches issued %d sets, want 3", got)
	}
}

func TestManDynString(t *testing.T) {
	strat := &ManDyn{Table: map[string]int{"b": 2, "a": 1}}
	s := strat.String()
	if !strings.Contains(s, "a:1") || !strings.Contains(s, "b:2") {
		t.Errorf("String() = %q", s)
	}
	if strings.Index(s, "a:1") > strings.Index(s, "b:2") {
		t.Error("table not sorted in String()")
	}
}

func TestPowerCapStrategy(t *testing.T) {
	s, dev := nvidiaSetter(t)
	strat := PowerCap{Watts: 250}
	if strat.Name() != "powercap-250" {
		t.Errorf("name %q", strat.Name())
	}
	if err := strat.Setup(s); err != nil {
		t.Fatal(err)
	}
	if dev.Mode() != gpusim.ModeAuto {
		t.Error("power cap should leave the governor in control")
	}
	if dev.PowerLimitW() != 250 {
		t.Errorf("limit %v", dev.PowerLimitW())
	}
	if err := strat.Apply(s, "fn"); err != nil {
		t.Fatal(err)
	}
}

// TestSetterRejectsNaNPowerLimit: a NaN cap through the setter fails and
// changes neither the cap in force nor what a capped launch costs: its
// duration and the energy counter after it.
func TestSetterRejectsNaNPowerLimit(t *testing.T) {
	s, dev := nvidiaSetter(t)
	twin := gpusim.NewDevice(gpusim.A100SXM480GB(), 0)
	for _, set := range []Setter{s, DeviceSetter{Dev: twin}} {
		if _, err := set.SetSMClock(1410); err != nil {
			t.Fatal(err)
		}
		if err := set.SetPowerLimitW(250); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetPowerLimitW(math.NaN()); err == nil {
		t.Error("NaN power limit accepted")
	}
	if got := dev.PowerLimitW(); got != 250 {
		t.Errorf("limit after a NaN cap %v, want 250", got)
	}
	k := gpusim.KernelDesc{Name: "compute", Items: 50e6, FlopsPerItem: 20000, BytesPerItem: 100}
	if got, want := dev.Launch(&k), twin.Launch(&k); got != want || dev.EnergyJ() != twin.EnergyJ() {
		t.Errorf("capped launch after a NaN cap took %v s to %v J; without it %v s to %v J",
			got, dev.EnergyJ(), want, twin.EnergyJ())
	}
}

func TestSetterPowerLimitBothVendors(t *testing.T) {
	sN, devN := nvidiaSetter(t)
	if err := sN.SetPowerLimitW(300); err != nil {
		t.Fatal(err)
	}
	if devN.PowerLimitW() != 300 {
		t.Errorf("nvidia limit %v", devN.PowerLimitW())
	}
	if err := sN.SetPowerLimitW(0); err != nil {
		t.Fatal(err)
	}
	if devN.PowerLimitW() != devN.Spec().TDPW {
		t.Error("nvidia reset failed")
	}

	sA, devA := amdSetter(t)
	if err := sA.SetPowerLimitW(200); err != nil {
		t.Fatal(err)
	}
	if devA.PowerLimitW() != 200 {
		t.Errorf("amd limit %v", devA.PowerLimitW())
	}
	if err := sA.SetPowerLimitW(0); err != nil {
		t.Fatal(err)
	}
	if devA.PowerLimitW() != devA.Spec().TDPW {
		t.Error("amd reset failed")
	}

	// A cap applies at full precision, finer than NVML's mW and
	// ROCm-SMI's µW, and an out-of-range one is the device's refusal,
	// which leaves the cap in force.
	if err := sA.SetPowerLimitW(200.0000004); err != nil {
		t.Fatal(err)
	}
	if devA.PowerLimitW() != 200.0000004 {
		t.Errorf("amd limit %v, want 200.0000004", devA.PowerLimitW())
	}
	if err := sN.SetPowerLimitW(300); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		s     Setter
		dev   *gpusim.Device
		watts float64
	}{{sN, devN, 1}, {sA, devA, 1e6}} {
		before := c.dev.PowerLimitW()
		if err := c.s.SetPowerLimitW(c.watts); err == nil || !strings.HasPrefix(err.Error(), "gpusim: power limit") {
			t.Errorf("%s: out-of-range cap %v W: %v", c.dev.Spec().Name, c.watts, err)
		}
		if got := c.dev.PowerLimitW(); got != before {
			t.Errorf("%s: refused cap moved the limit %v -> %v W", c.dev.Spec().Name, before, got)
		}
	}
}
