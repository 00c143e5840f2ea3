// Package cluster models the compute-node architectures of Table I —
// LUMI-G, CSCS-A100 and miniHPC — including CPU/memory/auxiliary power,
// GPU population, and the MPI-rank-to-GPU binding rules that the paper's
// analysis scripts must understand (one rank drives one GPU *die*, while
// pm_counters report per GPU *card*).
package cluster

import (
	"fmt"

	"sphenergy/internal/gpusim"
)

// CPUModel is the power model of one CPU package.
type CPUModel struct {
	Name  string
	Cores int
	IdleW float64 // package power with all cores idle
	MaxW  float64 // package power with all cores active
}

// MemModel is the power model of node DRAM.
type MemModel struct {
	SizeGB float64
	IdleW  float64
	MaxW   float64
}

// EnergyMeter integrates power over virtual time for one node component. A
// meter belongs to the goroutine that drives its node's run, so it has no
// lock.
type EnergyMeter struct {
	nowS    float64
	energyJ float64
	lastW   float64
}

// Advance accrues `watts` for `seconds` of virtual time and returns the
// cumulative energy before and after.
func (m *EnergyMeter) Advance(seconds, watts float64) (beforeJ, afterJ float64) {
	beforeJ = m.energyJ
	if seconds > 0 {
		m.nowS += seconds
		m.energyJ += watts * seconds
		m.lastW = watts
	}
	return beforeJ, m.energyJ
}

// EnergyJ returns cumulative energy in joules.
func (m *EnergyMeter) EnergyJ() float64 { return m.energyJ }

// NowS returns the component's virtual time.
func (m *EnergyMeter) NowS() float64 { return m.nowS }

// PowerW returns the last applied power.
func (m *EnergyMeter) PowerW() float64 { return m.lastW }

// CPU is one CPU package instance with its meter.
type CPU struct {
	Model CPUModel
	Meter EnergyMeter
}

// Advance accrues CPU energy for a window at the given utilization in [0,1]
// and returns the package's cumulative energy before and after.
func (c *CPU) Advance(seconds, util float64) (beforeJ, afterJ float64) {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return c.Meter.Advance(seconds, c.Model.IdleW+(c.Model.MaxW-c.Model.IdleW)*util)
}

// EnergyJ returns the package's cumulative energy.
func (c *CPU) EnergyJ() float64 { return c.Meter.EnergyJ() }

// Mem is the node DRAM instance with its meter.
type Mem struct {
	Model MemModel
	Meter EnergyMeter
}

// Advance accrues memory energy for a window at the given traffic level and
// returns the cumulative energy before and after.
func (m *Mem) Advance(seconds, util float64) (beforeJ, afterJ float64) {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return m.Meter.Advance(seconds, m.Model.IdleW+(m.Model.MaxW-m.Model.IdleW)*util)
}

// NodeSpec describes a node architecture.
type NodeSpec struct {
	Name        string
	CPUModel    CPUModel
	NumCPUs     int
	MemModel    MemModel
	GPUSpec     gpusim.Spec
	NumGPUDies  int     // addressable devices per node (GCDs on LUMI-G)
	DiesPerCard int     // dies per physical card (2 on MI250X, 1 on A100)
	AuxW        float64 // NIC, fans, VRM losses, SSD — the "other" of Fig. 4
}

// Node is one instantiated compute node.
type Node struct {
	Spec    NodeSpec
	CPUs    []*CPU
	Mem     *Mem
	Aux     EnergyMeter
	Devices []*gpusim.Device
}

// NewNode instantiates a node from its spec.
func NewNode(spec NodeSpec) *Node {
	n := &Node{Spec: spec}
	for i := 0; i < spec.NumCPUs; i++ {
		n.CPUs = append(n.CPUs, &CPU{Model: spec.CPUModel})
	}
	n.Mem = &Mem{Model: spec.MemModel}
	for i := 0; i < spec.NumGPUDies; i++ {
		n.Devices = append(n.Devices, gpusim.NewDevice(spec.GPUSpec, i))
	}
	return n
}

// AdvanceHost accrues CPU, memory and auxiliary energy for a window; the
// GPUs advance separately through their own Execute/Idle calls. It returns
// what the window added to each class: CPUEnergyJ(), Mem.Meter.EnergyJ() and
// Aux.EnergyJ() read after the call minus the same read before it, bit for
// bit (the packages are summed on each side first, in CPUEnergyJ's order),
// without the reads.
func (n *Node) AdvanceHost(seconds, cpuUtil, memUtil float64) (cpuJ, memJ, auxJ float64) {
	cpu0, cpu1 := 0.0, 0.0
	for _, c := range n.CPUs {
		b, a := c.Advance(seconds, cpuUtil)
		cpu0 += b
		cpu1 += a
	}
	mem0, mem1 := n.Mem.Advance(seconds, memUtil)
	aux0, aux1 := n.Aux.Advance(seconds, n.Spec.AuxW)
	return cpu1 - cpu0, mem1 - mem0, aux1 - aux0
}

// CardEnergyJ returns the energy of physical GPU card `card`, summing its
// dies — the granularity at which Cray pm_counters report accelerator
// energy. On LUMI-G one card covers two MPI ranks' devices.
func (n *Node) CardEnergyJ(card int) float64 {
	sum := 0.0
	for die := 0; die < n.Spec.DiesPerCard; die++ {
		idx := card*n.Spec.DiesPerCard + die
		if idx < len(n.Devices) {
			sum += n.Devices[idx].EnergyJ()
		}
	}
	return sum
}

// NumCards returns the number of physical GPU cards.
func (n *Node) NumCards() int {
	return n.Spec.NumGPUDies / n.Spec.DiesPerCard
}

// CPUEnergyJ returns total CPU package energy.
func (n *Node) CPUEnergyJ() float64 {
	sum := 0.0
	for _, c := range n.CPUs {
		sum += c.EnergyJ()
	}
	return sum
}

// GPUEnergyJ returns total GPU energy across all dies.
func (n *Node) GPUEnergyJ() float64 {
	sum := 0.0
	for _, d := range n.Devices {
		sum += d.EnergyJ()
	}
	return sum
}

// TotalEnergyJ returns whole-node energy: CPU + memory + GPU + auxiliary.
func (n *Node) TotalEnergyJ() float64 {
	return n.CPUEnergyJ() + n.Mem.Meter.EnergyJ() + n.GPUEnergyJ() + n.Aux.EnergyJ()
}

// System is a multi-node allocation.
type System struct {
	Spec  NodeSpec
	Nodes []*Node
}

// NewSystem allocates numNodes nodes of the given spec.
func NewSystem(spec NodeSpec, numNodes int) *System {
	s := &System{Spec: spec}
	for i := 0; i < numNodes; i++ {
		s.Nodes = append(s.Nodes, NewNode(spec))
	}
	return s
}

// RanksPerNode returns how many MPI ranks a node hosts under the
// one-rank-per-GPU-die rule.
func (s *System) RanksPerNode() int { return s.Spec.NumGPUDies }

// TotalRanks returns the rank count of the allocation.
func (s *System) TotalRanks() int { return len(s.Nodes) * s.RanksPerNode() }

// DeviceForRank resolves the GPU die that a global MPI rank drives, plus
// its node. Ranks are laid out node-major, matching block rank placement.
func (s *System) DeviceForRank(rank int) (*Node, *gpusim.Device, error) {
	rpn := s.RanksPerNode()
	node := rank / rpn
	local := rank % rpn
	if node >= len(s.Nodes) {
		return nil, nil, fmt.Errorf("cluster: rank %d exceeds allocation of %d ranks", rank, s.TotalRanks())
	}
	return s.Nodes[node], s.Nodes[node].Devices[local], nil
}

// TotalEnergyJ sums node energies across the allocation.
func (s *System) TotalEnergyJ() float64 {
	sum := 0.0
	for _, n := range s.Nodes {
		sum += n.TotalEnergyJ()
	}
	return sum
}

// NodesForRanks returns how many nodes an allocation of `ranks` ranks needs.
func (s NodeSpec) NodesForRanks(ranks int) int {
	rpn := s.NumGPUDies
	return (ranks + rpn - 1) / rpn
}

// LUMIG returns the LUMI-G node of Table I: 1× AMD EPYC 7A53 64-core,
// 512 GB, 4× MI250X cards = 8 GCDs.
func LUMIG() NodeSpec {
	return NodeSpec{
		Name:        "LUMI-G",
		CPUModel:    CPUModel{Name: "AMD EPYC 7A53", Cores: 64, IdleW: 120, MaxW: 300},
		NumCPUs:     1,
		MemModel:    MemModel{SizeGB: 512, IdleW: 90, MaxW: 140},
		GPUSpec:     gpusim.MI250XGCD(),
		NumGPUDies:  8,
		DiesPerCard: 2,
		AuxW:        400,
	}
}

// CSCSA100 returns the CSCS-A100 node of Table I: 1× AMD EPYC 64-core,
// 4× A100-SXM4 80 GB.
func CSCSA100() NodeSpec {
	return NodeSpec{
		Name:        "CSCS-A100",
		CPUModel:    CPUModel{Name: "AMD EPYC 7713", Cores: 64, IdleW: 100, MaxW: 240},
		NumCPUs:     1,
		MemModel:    MemModel{SizeGB: 512, IdleW: 45, MaxW: 80},
		GPUSpec:     gpusim.A100SXM480GB(),
		NumGPUDies:  4,
		DiesPerCard: 1,
		AuxW:        210,
	}
}

// MiniHPC returns the miniHPC GPU node of Table I: 2× Intel Xeon Gold
// 6258R 28-core, 1.5 TB, 2× A100-PCIe 40 GB.
func MiniHPC() NodeSpec {
	return NodeSpec{
		Name:        "miniHPC",
		CPUModel:    CPUModel{Name: "Intel Xeon Gold 6258R", Cores: 28, IdleW: 60, MaxW: 205},
		NumCPUs:     2,
		MemModel:    MemModel{SizeGB: 1536, IdleW: 45, MaxW: 90},
		GPUSpec:     gpusim.A100PCIE40GB(),
		NumGPUDies:  2,
		DiesPerCard: 1,
		AuxW:        120,
	}
}

// SystemByName resolves the Table I systems by name.
func SystemByName(name string) (NodeSpec, error) {
	switch name {
	case "lumi-g", "LUMI-G", "lumi":
		return LUMIG(), nil
	case "cscs-a100", "CSCS-A100", "cscs":
		return CSCSA100(), nil
	case "minihpc", "miniHPC":
		return MiniHPC(), nil
	}
	return NodeSpec{}, fmt.Errorf("cluster: unknown system %q (want lumi-g, cscs-a100 or minihpc)", name)
}
