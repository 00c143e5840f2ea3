// Package freqctl implements the GPU frequency management strategies the
// paper compares (§IV-C/D): locked baseline clocks, static down-scaling,
// the hardware DVFS governor, and ManDyn — per-function application-clock
// switching driven by code instrumentation with a tuned frequency table.
//
// Strategies act through a Setter, the narrow clock- and power-control
// surface of one GPU. DeviceSetter is the one implementation over a
// simulated device of either vendor: the simulated
// nvmlDeviceSetApplicationsClocks, the user-level, no-superuser-required
// control path the paper establishes. In a run each rank's strategy acts
// through core's clock control, which sets the device through a
// DeviceSetter and adds, under a fault plan, the retry and breaker policy.
package freqctl

import (
	"fmt"
	"sort"
	"strings"

	"sphenergy/internal/gpusim"
)

// Setter is the clock- and power-control surface of one GPU.
type Setter interface {
	// SetSMClock locks the SM application clock, returning the applied MHz.
	SetSMClock(mhz int) (int, error)
	// ResetClocks returns the device to DVFS governor control.
	ResetClocks() error
	// MaxSMClock returns the highest supported application clock.
	MaxSMClock() int
	// SetPowerLimitW caps the board power (0 restores the default limit).
	SetPowerLimitW(watts float64) error
}

// DeviceSetter is the Setter over one simulated GPU of either vendor. A
// clock request snaps to the nearest supported clock, the higher one on a
// tie, with the memory clock left at its default; a power cap applies at
// full precision.
type DeviceSetter struct {
	Dev *gpusim.Device
}

// SetSMClock implements Setter.
func (s DeviceSetter) SetSMClock(mhz int) (int, error) {
	return s.Dev.SetApplicationClocks(0, mhz)
}

// ResetClocks implements Setter.
func (s DeviceSetter) ResetClocks() error {
	s.Dev.ResetApplicationClocks()
	return nil
}

// MaxSMClock implements Setter.
func (s DeviceSetter) MaxSMClock() int { return s.Dev.Spec().MaxSMClockMHz }

// SetPowerLimitW implements Setter.
func (s DeviceSetter) SetPowerLimitW(watts float64) error {
	if watts == 0 {
		s.Dev.ResetPowerLimit()
		return nil
	}
	return s.Dev.SetPowerLimit(watts)
}

// Strategy decides the GPU clock policy of a run. Implementations must be
// cheap: Apply runs before every instrumented function on every rank.
type Strategy interface {
	// Name labels the strategy in reports ("baseline", "static-1005", ...).
	Name() string
	// Setup is called once per rank before the time-stepping loop.
	Setup(s Setter) error
	// Apply is called before each instrumented function.
	Apply(s Setter, function string) error
}

// Baseline locks clocks at the maximum application clock — the paper's
// normalization reference (1410 MHz on A100).
type Baseline struct{}

// Name implements Strategy.
func (Baseline) Name() string { return "baseline" }

// Setup implements Strategy.
func (Baseline) Setup(s Setter) error {
	_, err := s.SetSMClock(s.MaxSMClock())
	return err
}

// Apply implements Strategy.
func (Baseline) Apply(Setter, string) error { return nil }

// Static locks clocks at a fixed value for the whole run (§IV-C).
type Static struct {
	MHz int
}

// Name implements Strategy.
func (st Static) Name() string { return fmt.Sprintf("static-%d", st.MHz) }

// Setup implements Strategy.
func (st Static) Setup(s Setter) error {
	_, err := s.SetSMClock(st.MHz)
	return err
}

// Apply implements Strategy.
func (Static) Apply(Setter, string) error { return nil }

// DVFS leaves the hardware governor in control (§IV-E).
type DVFS struct{}

// Name implements Strategy.
func (DVFS) Name() string { return "dvfs" }

// Setup implements Strategy.
func (DVFS) Setup(s Setter) error { return s.ResetClocks() }

// Apply implements Strategy.
func (DVFS) Apply(Setter, string) error { return nil }

// ManDyn is the paper's contribution: before each instrumented function the
// application sets the function's tuned frequency through the management
// API; functions missing from the table run at Default (the max clock when
// Default is 0).
type ManDyn struct {
	// Table maps function name to its tuned application clock in MHz.
	Table map[string]int
	// Default applies to functions not in the table; 0 means max clock.
	Default int

	// Redundant-set elision keys on the *requested* clock, not the applied
	// one: when the platform clamps a request (a table entry above a
	// fault-injected ceiling, or between supported steps), applied != mhz
	// forever, and eliding on applied would re-issue the same doomed set
	// before every function call instead of converging.
	lastReq int
}

// Name implements Strategy.
func (m *ManDyn) Name() string { return "mandyn" }

// Setup implements Strategy.
func (m *ManDyn) Setup(s Setter) error {
	m.lastReq = 0
	def := m.Default
	if def == 0 {
		def = s.MaxSMClock()
	}
	if _, err := s.SetSMClock(def); err != nil {
		return err
	}
	m.lastReq = def
	return nil
}

// Apply implements Strategy.
func (m *ManDyn) Apply(s Setter, function string) error {
	mhz, ok := m.Table[function]
	if !ok {
		mhz = m.Default
		if mhz == 0 {
			mhz = s.MaxSMClock()
		}
	}
	if mhz == m.lastReq {
		return nil
	}
	if _, err := s.SetSMClock(mhz); err != nil {
		m.lastReq = 0 // unknown state: do not elide the next set
		return err
	}
	m.lastReq = mhz
	return nil
}

// PowerCap is the alternative control knob: leave clocks to the governor
// but cap board power, letting the device derate itself. Sites prefer this
// when they distrust per-application clock settings; the ext-powercap
// experiment compares it against the paper's frequency scaling.
type PowerCap struct {
	Watts float64
}

// Name implements Strategy.
func (p PowerCap) Name() string { return fmt.Sprintf("powercap-%.0f", p.Watts) }

// Setup implements Strategy.
func (p PowerCap) Setup(s Setter) error {
	if err := s.ResetClocks(); err != nil {
		return err
	}
	return s.SetPowerLimitW(p.Watts)
}

// Apply implements Strategy.
func (PowerCap) Apply(Setter, string) error { return nil }

// String renders the tuned table for logs and reports.
func (m *ManDyn) String() string {
	names := make([]string, 0, len(m.Table))
	for n := range m.Table {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("mandyn{")
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%d", n, m.Table[n])
	}
	b.WriteString("}")
	return b.String()
}
