// Package pmt reimplements the interface of the Power Measurement Toolkit
// (Corda, Veenboer & Tolley, HUST'22) over the simulated sensors: a common
// State/Read/Joules API with interchangeable back-ends for Nvidia GPUs
// (NVML), AMD GPUs (ROCm-SMI), CPUs (RAPL) and whole HPE/Cray nodes
// (pm_counters).
//
// Usage mirrors the real toolkit:
//
//	sensor, _ := pmt.Create(pmt.BackendNVML, ...)
//	start := sensor.Read()
//	... run the instrumented region ...
//	end := sensor.Read()
//	joules := pmt.Joules(start, end)
package pmt

import (
	"errors"
	"fmt"
	"math"

	"sphenergy/internal/cluster"
	"sphenergy/internal/faults"
	"sphenergy/internal/nvml"
	"sphenergy/internal/pmcounters"
	"sphenergy/internal/rapl"
	"sphenergy/internal/rsmi"
)

// Backend identifies a PMT measurement back-end.
type Backend string

// Supported back-ends.
const (
	BackendNVML  Backend = "nvml"
	BackendRSMI  Backend = "rocm"
	BackendRAPL  Backend = "rapl"
	BackendCray  Backend = "cray"
	BackendDummy Backend = "dummy"
)

// State is one sensor sample: a (virtual) timestamp and cumulative energy,
// the pair PMT's Read() returns.
type State struct {
	TimeS   float64
	EnergyJ float64
}

// Joules returns the energy consumed between two states.
func Joules(start, end State) float64 { return end.EnergyJ - start.EnergyJ }

// Seconds returns the time elapsed between two states.
func Seconds(start, end State) float64 { return end.TimeS - start.TimeS }

// Watts returns the average power between two states, 0 for empty windows.
func Watts(start, end State) float64 {
	dt := Seconds(start, end)
	if dt <= 0 {
		return 0
	}
	return Joules(start, end) / dt
}

// Sensor is a PMT measurement source.
type Sensor interface {
	// Name identifies the sensor ("nvml:0", "rapl:pkg0", ...).
	Name() string
	// Read samples the sensor.
	Read() State
}

// Read() has no error return — exactly like the real toolkit — so
// back-end failures must be encoded in the State itself. The hardware
// sensors below do it uniformly via degrade: a stuck back-end replays the
// last good state (reader sees a frozen sample, the sampler's stuck
// detector catches the repetition), any other failure yields a NaN energy
// at the current timestamp (the sampler discards and counts it). A healthy
// read refreshes the cache.
func degrade(err error, now float64, last *State, started *bool) State {
	if errors.Is(err, faults.ErrStuck) && *started {
		return *last
	}
	return State{TimeS: now, EnergyJ: math.NaN()}
}

// backender is implemented by sensors that know their back-end; BackendOf
// falls back to BackendDummy for anything else.
type backender interface {
	Backend() Backend
}

// BackendOf reports the back-end a sensor measures through, BackendDummy
// when unknown. Callers use this to pick per-backend sampling rates.
func BackendOf(s Sensor) Backend {
	if b, ok := s.(backender); ok {
		return b.Backend()
	}
	return BackendDummy
}

// nvmlSensor measures one Nvidia device through the NVML energy counter.
type nvmlSensor struct {
	dev     nvml.Device
	last    State
	started bool
}

// NewNVML creates a GPU sensor over an NVML device handle.
func NewNVML(dev nvml.Device) Sensor { return &nvmlSensor{dev: dev} }

func (s *nvmlSensor) Name() string { return fmt.Sprintf("nvml:%s", s.dev.Name()) }

// Backend implements the back-end probe used by BackendOf.
func (s *nvmlSensor) Backend() Backend { return BackendNVML }

func (s *nvmlSensor) Read() State {
	now, mj, err := s.dev.TotalEnergyConsumptionAt()
	if err != nil {
		return degrade(err, now, &s.last, &s.started)
	}
	s.last = State{TimeS: now, EnergyJ: float64(mj) / 1000}
	s.started = true
	return s.last
}

// rsmiSensor measures one AMD device through the ROCm-SMI energy counter.
type rsmiSensor struct {
	lib     *rsmi.Library
	idx     int
	last    State
	started bool
}

// NewRSMI creates a GPU sensor over a rocm-smi device index.
func NewRSMI(lib *rsmi.Library, idx int) Sensor {
	return &rsmiSensor{lib: lib, idx: idx}
}

func (s *rsmiSensor) Name() string { return fmt.Sprintf("rocm:%d", s.idx) }

// Backend implements the back-end probe used by BackendOf.
func (s *rsmiSensor) Backend() Backend { return BackendRSMI }

func (s *rsmiSensor) Read() State {
	now, uj, err := s.lib.DevEnergyCountGetAt(s.idx)
	if err != nil {
		return degrade(err, now, &s.last, &s.started)
	}
	s.last = State{TimeS: now, EnergyJ: float64(uj) / 1e6}
	s.started = true
	return s.last
}

// raplSensor measures one CPU package through the RAPL counter.
type raplSensor struct {
	reader  *rapl.Reader
	cpu     *cluster.CPU
	pkg     int
	last    State
	started bool
}

// NewRAPL creates a CPU sensor over a RAPL reader; cpu provides the virtual
// timestamp of the package meter.
func NewRAPL(reader *rapl.Reader, cpu *cluster.CPU, pkg int) Sensor {
	return &raplSensor{reader: reader, cpu: cpu, pkg: pkg}
}

func (s *raplSensor) Name() string { return fmt.Sprintf("rapl:pkg%d", s.pkg) }

// Backend implements the back-end probe used by BackendOf.
func (s *raplSensor) Backend() Backend { return BackendRAPL }

func (s *raplSensor) Read() State {
	now := s.cpu.Meter.NowS()
	j, err := s.reader.Poll()
	if err != nil {
		return degrade(err, now, &s.last, &s.started)
	}
	s.last = State{TimeS: now, EnergyJ: j}
	s.started = true
	return s.last
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

// NewCray creates a sensor over a node's pm_counters view. card selects the
// accelerator card for CrayAccel and is ignored otherwise.
func NewCray(node *cluster.Node, component CrayComponent, card int) Sensor {
	return NewCrayOn(pmcounters.New(node), node, component, card)
}

// NewCrayOn creates a sensor over an existing pm_counters view, so callers
// that need to install a fault hook (or share one Counters instance across
// components) can construct the view themselves.
func NewCrayOn(pc *pmcounters.Counters, node *cluster.Node, component CrayComponent, card int) Sensor {
	return &craySensor{pc: pc, component: component, card: card, node: node}
}

// Backend implements the back-end probe used by BackendOf.
func (s *craySensor) Backend() Backend { return BackendCray }

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

// Backend implements the back-end probe used by BackendOf.
func (Dummy) Backend() Backend { return BackendDummy }

// Multi aggregates several sensors into one (e.g. GPU + CPU for a rank's
// combined footprint). Timestamps take the furthest-advanced sensor.
type Multi struct {
	name    string
	sensors []Sensor
}

// NewMulti combines sensors under one name.
func NewMulti(name string, sensors ...Sensor) *Multi {
	return &Multi{name: name, sensors: sensors}
}

// Name implements Sensor.
func (m *Multi) Name() string { return m.name }

// Read implements Sensor.
func (m *Multi) Read() State {
	var out State
	for _, s := range m.sensors {
		st := s.Read()
		out.EnergyJ += st.EnergyJ
		if st.TimeS > out.TimeS {
			out.TimeS = st.TimeS
		}
	}
	return out
}
