// Package gpusim simulates a GPU device at the granularity the paper's
// instrumentation observes: one SM clock domain with application-clock
// locking (the memory clock is fixed at its maximum, as in the paper), a
// DVFS governor, a roofline-style kernel timing model, and a CMOS power
// model integrated over virtual time.
//
// The simulator substitutes for the A100 and MI250X hardware of the paper
// (see DESIGN.md): the phenomena under study — compute-bound kernels slowing
// down proportionally to 1/f, memory- and launch-bound kernels being
// insensitive to f, and power dropping superlinearly with frequency via the
// V(f) curve — are properties of this model, calibrated against public
// device specifications.
package gpusim

import (
	"fmt"
	"sort"
)

// Vendor distinguishes the management API family a device responds to.
type Vendor int

// Supported vendors.
const (
	Nvidia Vendor = iota
	AMD
)

// String implements fmt.Stringer.
func (v Vendor) String() string {
	if v == AMD {
		return "amd"
	}
	return "nvidia"
}

// VoltagePoint is one point of the voltage-frequency curve.
type VoltagePoint struct {
	MHz   int
	Volts float64
}

// Spec describes a GPU model. All power figures are for one addressable
// device: a full A100 card, or a single GCD of an MI250X.
type Spec struct {
	Name   string
	Vendor Vendor

	// Clock domains.
	MaxSMClockMHz  int // maximum boost/application clock
	MinSMClockMHz  int // lowest supported application clock
	SMClockStepMHz int // application clock granularity
	IdleSMClockMHz int // parked clock when idle under DVFS
	// MemClockMHz is the one memory clock: the paper holds HBM at its
	// maximum, so the model has a single SM clock domain and MemBWGBs is
	// always the bandwidth available.
	MemClockMHz int

	// Throughput at MaxSMClock.
	PeakGFLOPS float64 // FP64 peak, GFLOP/s
	MemBWGBs   float64 // memory bandwidth, GB/s
	MemSizeGB  float64

	// Power model.
	IdlePowerW   float64 // clock-gated idle floor
	MaxSMPowerW  float64 // dynamic SM power at fmax, Vmax, full activity
	MaxMemPowerW float64 // memory subsystem power at full bandwidth
	TDPW         float64 // board power cap
	VoltageCurve []VoltagePoint

	// Execution overheads.
	KernelLaunchOverheadS float64 // CPU+driver cost per kernel launch (wall time)
	SaturationItems       float64 // work items at which throughput reaches ~50% of peak scaling knee

	// Governor dynamics (DVFS mode).
	RampTauS    float64 // exponential clock ramp time constant
	BoostHoldS  float64 // time clocks stay up after a kernel completes
	IdleDecayS  float64 // decay time constant toward idle clock
	DVFSMarginW float64 // extra stability power overhead while in auto mode
}

// Validate checks internal consistency of a spec.
func (s Spec) Validate() error {
	if s.MaxSMClockMHz <= s.MinSMClockMHz {
		return fmt.Errorf("gpusim: %s: max clock %d <= min clock %d", s.Name, s.MaxSMClockMHz, s.MinSMClockMHz)
	}
	if s.SMClockStepMHz <= 0 {
		return fmt.Errorf("gpusim: %s: non-positive clock step", s.Name)
	}
	if len(s.VoltageCurve) < 2 {
		return fmt.Errorf("gpusim: %s: voltage curve needs >= 2 points", s.Name)
	}
	for i := 1; i < len(s.VoltageCurve); i++ {
		if s.VoltageCurve[i].MHz <= s.VoltageCurve[i-1].MHz {
			return fmt.Errorf("gpusim: %s: voltage curve not increasing in MHz", s.Name)
		}
		if s.VoltageCurve[i].Volts < s.VoltageCurve[i-1].Volts {
			return fmt.Errorf("gpusim: %s: voltage curve not monotone in volts", s.Name)
		}
	}
	if s.PeakGFLOPS <= 0 || s.MemBWGBs <= 0 {
		return fmt.Errorf("gpusim: %s: non-positive throughput", s.Name)
	}
	return nil
}

// SupportedClocksMHz lists the application clocks the device accepts, in
// descending order (the NVML convention): MaxSMClockMHz down in steps of
// SMClockStepMHz while not below MinSMClockMHz.
func (s Spec) SupportedClocksMHz() []int {
	out := make([]int, s.clockCount())
	for i := range out {
		out[i] = s.MaxSMClockMHz - i*s.SMClockStepMHz
	}
	return out
}

// clockCount is the length of the SupportedClocksMHz table.
func (s Spec) clockCount() int {
	return (s.MaxSMClockMHz-s.MinSMClockMHz)/s.SMClockStepMHz + 1
}

// NearestSupportedClock snaps a requested clock to the closest supported
// application clock, the higher one when two are equally close. It is the
// table's nearest entry worked out from the table's rule: every clock
// change goes through here, so it builds nothing.
func (s Spec) NearestSupportedClock(mhz int) int {
	below := s.MaxSMClockMHz - mhz
	if below <= 0 {
		return s.MaxSMClockMHz
	}
	k := below / s.SMClockStepMHz
	if 2*(below%s.SMClockStepMHz) > s.SMClockStepMHz {
		k++
	}
	return s.MaxSMClockMHz - min(k, s.clockCount()-1)*s.SMClockStepMHz
}

// voltageAt interpolates the core voltage at a clock frequency, clamping to
// the curve's ends. The spec is read through a pointer: the device's power
// model calls it each time the clock it prices changes.
func (s *Spec) voltageAt(mhz int) float64 {
	c := s.VoltageCurve
	if mhz <= c[0].MHz {
		return c[0].Volts
	}
	last := c[len(c)-1]
	if mhz >= last.MHz {
		return last.Volts
	}
	i := sort.Search(len(c), func(j int) bool { return c[j].MHz >= mhz }) // first >= mhz
	lo, hi := c[i-1], c[i]
	t := float64(mhz-lo.MHz) / float64(hi.MHz-lo.MHz)
	return lo.Volts + t*(hi.Volts-lo.Volts)
}

// A100SXM480GB models the Nvidia A100-SXM4 80 GB of the CSCS-A100 system
// (Table I): 1410 MHz max SM clock, 1593 MHz memory clock.
func A100SXM480GB() Spec {
	return Spec{
		Name:           "NVIDIA A100-SXM4-80GB",
		Vendor:         Nvidia,
		MaxSMClockMHz:  1410,
		MinSMClockMHz:  210,
		SMClockStepMHz: 15,
		IdleSMClockMHz: 210,
		MemClockMHz:    1593,
		PeakGFLOPS:     9700, // FP64 with FMA
		MemBWGBs:       2039,
		MemSizeGB:      80,
		IdlePowerW:     50,
		MaxSMPowerW:    260,
		MaxMemPowerW:   85,
		TDPW:           400,
		VoltageCurve: []VoltagePoint{
			{210, 0.70}, {705, 0.78}, {1005, 0.88}, {1215, 1.00}, {1410, 1.05},
		},
		KernelLaunchOverheadS: 6e-6,
		SaturationItems:       2.0e6,
		RampTauS:              2e-3,
		BoostHoldS:            10e-3,
		IdleDecayS:            80e-3,
		DVFSMarginW:           16,
	}
}

// A100PCIE40GB models the Nvidia A100-PCIe 40 GB of the miniHPC system.
func A100PCIE40GB() Spec {
	s := A100SXM480GB()
	s.Name = "NVIDIA A100-PCIE-40GB"
	s.MemSizeGB = 40
	s.MemBWGBs = 1555
	s.TDPW = 250
	s.IdlePowerW = 32
	s.MaxSMPowerW = 175
	s.MaxMemPowerW = 55
	return s
}

// MI250XGCD models one Graphics Compute Die (half card) of an AMD MI250X as
// deployed in LUMI-G: 1700 MHz compute clock, 1600 MHz memory clock, 64 GB.
// Power figures are per GCD (half of the 560 W card).
func MI250XGCD() Spec {
	return Spec{
		Name:           "AMD MI250X GCD",
		Vendor:         AMD,
		MaxSMClockMHz:  1700,
		MinSMClockMHz:  500,
		SMClockStepMHz: 50,
		IdleSMClockMHz: 500,
		MemClockMHz:    1600,
		PeakGFLOPS:     23950, // per GCD FP64 peak
		MemBWGBs:       1638,  // per GCD
		MemSizeGB:      64,
		IdlePowerW:     65,
		MaxSMPowerW:    260,
		MaxMemPowerW:   70,
		TDPW:           300,
		VoltageCurve: []VoltagePoint{
			{500, 0.70}, {900, 0.78}, {1200, 0.88}, {1500, 1.00}, {1700, 1.05},
		},
		KernelLaunchOverheadS: 8e-6,
		SaturationItems:       2.5e6,
		RampTauS:              2.5e-3,
		BoostHoldS:            10e-3,
		IdleDecayS:            80e-3,
		DVFSMarginW:           16,
	}
}
