// Package pmt reimplements the interface of the Power Measurement Toolkit
// (Corda, Veenboer & Tolley, HUST'22) over the simulated sensors: a common
// State/Read/Joules API over one sensor per counter — a GPU's in-band
// energy counter (NVML on Nvidia, ROCm-SMI on AMD) and a HPE/Cray node's
// out-of-band pm_counters files.
//
// Usage mirrors the real toolkit:
//
//	sensor := pmt.NewGPU(dev) // or NewCrayOn
//	start := sensor.Read()
//	... run the instrumented region ...
//	end := sensor.Read()
//	joules := pmt.Joules(start, end)
package pmt

import (
	"fmt"

	"sphenergy/internal/cluster"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/nvml"
	"sphenergy/internal/pmcounters"
)

// State is one sensor sample: a (virtual) timestamp and cumulative energy,
// the pair PMT's Read() returns. Read() has no error return — exactly like
// the real toolkit — so a failed read is NaN energy at the time the read
// reports (internal/faults makes them; the sampler discards and counts
// them).
type State struct {
	TimeS   float64
	EnergyJ float64
}

// Joules returns the energy consumed between two states.
func Joules(start, end State) float64 { return end.EnergyJ - start.EnergyJ }

// Sensor is a PMT measurement source.
type Sensor interface {
	// Name identifies the sensor ("nvml:0", "cray:energy", ...).
	Name() string
	// Read samples the sensor.
	Read() State
}

// gpuSensor reads one device's in-band energy counter at its vendor's
// resolution: NVML's nvmlDeviceGetTotalEnergyConsumption counts whole
// millijoules, ROCm-SMI's rsmi_dev_energy_count_get whole microjoules.
type gpuSensor struct {
	dev  *gpusim.Device
	name string
	amd  bool
}

// NewGPU creates the sensor over a device's energy counter, the one PMT's
// NVML or ROCm-SMI back-end reads. An AMD device's sensor is "rocm:0"
// whatever its index: a rank sees its own GCD as device 0, and the sampler
// channel's name, which the run bundle records, carries it.
func NewGPU(dev *gpusim.Device) Sensor {
	if dev.Spec().Vendor == gpusim.AMD {
		return &gpuSensor{dev: dev, name: "rocm:0", amd: true}
	}
	return &gpuSensor{dev: dev, name: "nvml:" + dev.Spec().Name}
}

// NewNVML creates the sensor over the device behind an NVML handle.
func NewNVML(h nvml.Device) Sensor { return NewGPU(h.GPU()) }

func (s *gpuSensor) Name() string { return s.name }

// Read returns the counter and the device time it stood at, read together
// (see gpusim.Device.EnergyAt), truncated to the counter's unit.
func (s *gpuSensor) Read() State {
	now, j := s.dev.EnergyAt()
	if s.amd {
		return State{TimeS: now, EnergyJ: float64(uint64(j*1e6)) / 1e6}
	}
	return State{TimeS: now, EnergyJ: float64(int64(j*1000)) / 1000}
}

// CrayComponent selects which pm_counters file a Cray sensor reads.
type CrayComponent string

// Cray components: the node's `energy` file, which the runs and Slurm's
// accounting read, and the per-card `accelN_energy` files, kept because a
// card's file is the out-of-band source for one MI250X's two GCDs (ROADMAP
// item 10).
const (
	CrayNode  CrayComponent = "energy"
	CrayAccel CrayComponent = "accel" // requires card index
)

// craySensor measures a node component through pm_counters.
type craySensor struct {
	pc        *pmcounters.Counters
	component CrayComponent
	card      int
	node      *cluster.Node
}

// NewCrayOn creates a sensor over an existing pm_counters view, so callers
// that install a collection hook (or share one Counters instance across
// components) can construct the view themselves.
func NewCrayOn(pc *pmcounters.Counters, node *cluster.Node, component CrayComponent, card int) Sensor {
	return &craySensor{pc: pc, component: component, card: card, node: node}
}

func (s *craySensor) Name() string {
	if s.component == CrayAccel {
		return fmt.Sprintf("cray:accel%d_energy", s.card)
	}
	return "cray:" + string(s.component)
}

func (s *craySensor) Read() State {
	var j float64
	switch s.component {
	case CrayNode:
		j = s.pc.Energy()
	case CrayAccel:
		j, _ = s.pc.AccelEnergy(s.card)
	}
	return State{TimeS: s.node.Aux.NowS(), EnergyJ: j}
}
