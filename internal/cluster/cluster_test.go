package cluster

import (
	"math"
	"testing"

	"sphenergy/internal/gpusim"
)

func TestTableISpecs(t *testing.T) {
	lumi := LUMIG()
	if lumi.NumGPUDies != 8 || lumi.DiesPerCard != 2 {
		t.Error("LUMI-G should have 8 GCDs on 4 cards")
	}
	if lumi.GPUSpec.Vendor != gpusim.AMD {
		t.Error("LUMI-G GPUs should be AMD")
	}
	if lumi.GPUSpec.MaxSMClockMHz != 1700 || lumi.GPUSpec.MemClockMHz != 1600 {
		t.Error("LUMI-G clock spec mismatch with Table I")
	}

	cscs := CSCSA100()
	if cscs.NumGPUDies != 4 || cscs.DiesPerCard != 1 {
		t.Error("CSCS-A100 should have 4 single-die cards")
	}
	if cscs.GPUSpec.MaxSMClockMHz != 1410 || cscs.GPUSpec.MemClockMHz != 1593 {
		t.Error("CSCS-A100 clock spec mismatch with Table I")
	}

	mini := MiniHPC()
	if mini.NumCPUs != 2 || mini.CPUModel.Cores != 28 {
		t.Error("miniHPC should have 2x 28-core CPUs")
	}
	if mini.NumGPUDies != 2 {
		t.Error("miniHPC should have 2 GPUs")
	}
	if mini.GPUSpec.MemSizeGB != 40 {
		t.Error("miniHPC A100s are the 40 GB PCIe variant")
	}
}

func TestSystemByName(t *testing.T) {
	for _, name := range []string{"lumi-g", "cscs-a100", "minihpc"} {
		if _, err := SystemByName(name); err != nil {
			t.Errorf("SystemByName(%q): %v", name, err)
		}
	}
	if _, err := SystemByName("summit"); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestNodeConstruction(t *testing.T) {
	n := NewNode(LUMIG())
	if len(n.Devices) != 8 || len(n.CPUs) != 1 {
		t.Error("component counts")
	}
	if n.NumCards() != 4 {
		t.Errorf("NumCards = %d", n.NumCards())
	}
}

func TestEnergyMeterIntegration(t *testing.T) {
	var m EnergyMeter
	m.Advance(2, 100)
	m.Advance(3, 50)
	if math.Abs(m.EnergyJ()-350) > 1e-12 {
		t.Errorf("energy %v, want 350", m.EnergyJ())
	}
	if math.Abs(m.NowS()-5) > 1e-12 {
		t.Errorf("time %v, want 5", m.NowS())
	}
	m.Advance(-1, 100) // ignored
	if m.NowS() != 5 {
		t.Error("negative window advanced the meter")
	}
}

func TestCPUUtilizationClamping(t *testing.T) {
	c := &CPU{Model: CPUModel{IdleW: 100, MaxW: 200}}
	c.Advance(1, 2.0) // clamped to 1
	if math.Abs(c.EnergyJ()-200) > 1e-12 {
		t.Errorf("clamped-high energy %v", c.EnergyJ())
	}
	c2 := &CPU{Model: CPUModel{IdleW: 100, MaxW: 200}}
	c2.Advance(1, -1) // clamped to 0
	if math.Abs(c2.EnergyJ()-100) > 1e-12 {
		t.Errorf("clamped-low energy %v", c2.EnergyJ())
	}
}

func TestAdvanceHostTouchesAllComponents(t *testing.T) {
	n := NewNode(CSCSA100())
	n.AdvanceHost(2, 0.5, 0.5)
	if n.CPUEnergyJ() <= 0 || n.Mem.Meter.EnergyJ() <= 0 || n.Aux.EnergyJ() <= 0 {
		t.Error("host advance missed a component")
	}
	if n.GPUEnergyJ() != 0 {
		t.Error("host advance must not touch GPUs")
	}
}

// AdvanceHost hands back, per device class, exactly what metering the window
// from outside reads: the class total after the call minus the total before
// it — also with two CPU packages, whose counters are summed before they are
// subtracted — and nothing for an empty window.
func TestAdvanceHostReturnsMeteredDeltas(t *testing.T) {
	for _, spec := range []NodeSpec{CSCSA100(), MiniHPC(), LUMIG()} {
		n := NewNode(spec)
		for i, w := range []struct{ s, cpu, mem float64 }{
			{0.1234567, 0.55, 0.35}, {3.3e-3, 0.08, 0.3}, {0, 0.5, 0.5}, {0.07, 1.7, -1}, {41.9, 0.1, 0.15}, {1e-9, 0.06, 0.25},
		} {
			cpu0, mem0, aux0 := n.CPUEnergyJ(), n.Mem.Meter.EnergyJ(), n.Aux.EnergyJ()
			cpuJ, memJ, auxJ := n.AdvanceHost(w.s, w.cpu, w.mem)
			if want := n.CPUEnergyJ() - cpu0; cpuJ != want {
				t.Errorf("%s window %d: cpu delta %v, metered %v", spec.Name, i, cpuJ, want)
			}
			if want := n.Mem.Meter.EnergyJ() - mem0; memJ != want {
				t.Errorf("%s window %d: mem delta %v, metered %v", spec.Name, i, memJ, want)
			}
			if want := n.Aux.EnergyJ() - aux0; auxJ != want {
				t.Errorf("%s window %d: aux delta %v, metered %v", spec.Name, i, auxJ, want)
			}
			if w.s == 0 && (cpuJ != 0 || memJ != 0 || auxJ != 0) {
				t.Errorf("%s: empty window accrued %v %v %v", spec.Name, cpuJ, memJ, auxJ)
			}
		}
	}
}

func TestTotalEnergyIsSum(t *testing.T) {
	n := NewNode(LUMIG())
	n.AdvanceHost(1, 0.3, 0.2)
	for _, d := range n.Devices {
		d.Idle(1)
	}
	sum := n.CPUEnergyJ() + n.Mem.Meter.EnergyJ() + n.GPUEnergyJ() + n.Aux.EnergyJ()
	if math.Abs(n.TotalEnergyJ()-sum) > 1e-9 {
		t.Errorf("TotalEnergyJ %v != sum %v", n.TotalEnergyJ(), sum)
	}
}

func TestCardEnergyGroupsGCDs(t *testing.T) {
	n := NewNode(LUMIG())
	n.Devices[0].Idle(1)
	n.Devices[1].Idle(2)
	want := n.Devices[0].EnergyJ() + n.Devices[1].EnergyJ()
	if math.Abs(n.CardEnergyJ(0)-want) > 1e-9 {
		t.Errorf("card 0 energy %v, want %v", n.CardEnergyJ(0), want)
	}
	if n.CardEnergyJ(1) != 0 {
		t.Error("untouched card reports energy")
	}
}

func TestDeviceForRank(t *testing.T) {
	sys := NewSystem(LUMIG(), 2) // 16 ranks
	if sys.TotalRanks() != 16 {
		t.Fatalf("TotalRanks = %d", sys.TotalRanks())
	}
	node, dev, err := sys.DeviceForRank(9)
	if err != nil {
		t.Fatal(err)
	}
	if node != sys.Nodes[1] || dev.Index() != 1 {
		t.Errorf("rank 9 -> node %p dev %d, want node 1 (%p) dev 1", node, dev.Index(), sys.Nodes[1])
	}
	if _, _, err := sys.DeviceForRank(16); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

func TestNodesForRanks(t *testing.T) {
	spec := CSCSA100() // 4 dies per node
	cases := map[int]int{1: 1, 4: 1, 5: 2, 32: 8, 48: 12}
	for ranks, want := range cases {
		if got := spec.NodesForRanks(ranks); got != want {
			t.Errorf("NodesForRanks(%d) = %d, want %d", ranks, got, want)
		}
	}
}

func TestSystemTotalEnergy(t *testing.T) {
	sys := NewSystem(CSCSA100(), 2)
	for _, n := range sys.Nodes {
		n.AdvanceHost(1, 0.1, 0.1)
	}
	if sys.TotalEnergyJ() <= 0 {
		t.Error("system energy not accumulated")
	}
	if math.Abs(sys.TotalEnergyJ()-2*sys.Nodes[0].TotalEnergyJ()) > 1e-9 {
		t.Error("identical nodes should contribute equally")
	}
}
