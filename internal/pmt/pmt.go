// Package pmt reimplements the interface of the Power Measurement Toolkit
// (Corda, Veenboer & Tolley, HUST'22) over the simulated sensors: a common
// State/Read/Joules API with interchangeable back-ends for Nvidia GPUs
// (NVML), AMD GPUs (ROCm-SMI) and whole HPE/Cray nodes (pm_counters), whose
// components include the CPU packages.
//
// Usage mirrors the real toolkit:
//
//	sensor := pmt.NewNVML(handle) // or NewRSMI, NewCrayOn
//	start := sensor.Read()
//	... run the instrumented region ...
//	end := sensor.Read()
//	joules := pmt.Joules(start, end)
package pmt

import (
	"fmt"
	"math"

	"sphenergy/internal/cluster"
	"sphenergy/internal/nvml"
	"sphenergy/internal/pmcounters"
	"sphenergy/internal/rsmi"
)

// State is one sensor sample: a (virtual) timestamp and cumulative energy,
// the pair PMT's Read() returns.
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

// Read() has no error return — exactly like the real toolkit — so a
// failed vendor read is encoded in the State itself: NaN energy at the time
// the read reports (the sampler discards and counts it).
func failed(now float64) State { return State{TimeS: now, EnergyJ: math.NaN()} }

// nvmlSensor measures one Nvidia device through the NVML energy counter.
type nvmlSensor struct {
	dev nvml.Device
}

// NewNVML creates a GPU sensor over an NVML device handle.
func NewNVML(dev nvml.Device) Sensor { return &nvmlSensor{dev: dev} }

func (s *nvmlSensor) Name() string { return fmt.Sprintf("nvml:%s", s.dev.Name()) }

func (s *nvmlSensor) Read() State {
	now, mj, err := s.dev.TotalEnergyConsumptionAt()
	if err != nil {
		return failed(now)
	}
	return State{TimeS: now, EnergyJ: float64(mj) / 1000}
}

// rsmiSensor measures one AMD device through the ROCm-SMI energy counter.
type rsmiSensor struct {
	lib *rsmi.Library
	idx int
}

// NewRSMI creates a GPU sensor over a rocm-smi device index.
func NewRSMI(lib *rsmi.Library, idx int) Sensor {
	return &rsmiSensor{lib: lib, idx: idx}
}

func (s *rsmiSensor) Name() string { return fmt.Sprintf("rocm:%d", s.idx) }

func (s *rsmiSensor) Read() State {
	now, uj, err := s.lib.DevEnergyCountGetAt(s.idx)
	if err != nil {
		return failed(now)
	}
	return State{TimeS: now, EnergyJ: float64(uj) / 1e6}
}

// CrayComponent selects which pm_counters file a Cray sensor reads.
type CrayComponent string

// Cray components.
const (
	CrayNode   CrayComponent = "energy"
	CrayCPU    CrayComponent = "cpu_energy"
	CrayMemory CrayComponent = "memory_energy"
	CrayAccel  CrayComponent = "accel" // requires card index
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
	case CrayCPU:
		j = s.pc.CPUEnergy()
	case CrayMemory:
		j = s.pc.MemoryEnergy()
	case CrayAccel:
		j, _ = s.pc.AccelEnergy(s.card)
	}
	return State{TimeS: s.node.Aux.NowS(), EnergyJ: j}
}

// Dummy is PMT's no-op backend for systems without any usable counters.
type Dummy struct{}

// Name implements Sensor.
func (Dummy) Name() string { return "dummy" }

// Read implements Sensor.
func (Dummy) Read() State { return State{} }
