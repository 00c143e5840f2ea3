package pmcounters

import (
	"math"
	"testing"

	"sphenergy/internal/cluster"
)

// lumiNode builds a LUMI-G node with some activity on its components.
func lumiNode(t *testing.T) *cluster.Node {
	t.Helper()
	node := cluster.NewNode(cluster.LUMIG())
	for _, d := range node.Devices {
		d.Idle(1.0)
	}
	node.AdvanceHost(1.0, 0.5, 0.5)
	return node
}

func TestPerCardAccounting(t *testing.T) {
	node := lumiNode(t)
	c := New(node)
	// LUMI-G: 8 GCDs on 4 cards; accel files exist for cards 0-3 only.
	for card := 0; card < 4; card++ {
		e, err := c.AccelEnergy(card)
		if err != nil {
			t.Fatalf("accel%d: %v", card, err)
		}
		want := node.Devices[2*card].EnergyJ() + node.Devices[2*card+1].EnergyJ()
		if math.Abs(e-want) > 1e-9 {
			t.Errorf("accel%d = %v, want sum of both GCDs %v", card, e, want)
		}
	}
	if _, err := c.AccelEnergy(4); err == nil {
		t.Error("accel4 should not exist on a 4-card node")
	}
}

func TestNodeEnergyIsSumOfComponents(t *testing.T) {
	node := lumiNode(t)
	c := New(node)
	sum := node.CPUEnergyJ() + node.Mem.Meter.EnergyJ() + node.GPUEnergyJ() + node.Aux.EnergyJ()
	if math.Abs(sum-c.Energy()) > 1e-6 {
		t.Errorf("component meters sum to %v, node energy reads %v", sum, c.Energy())
	}
}

func TestAuxiliaryDerivation(t *testing.T) {
	node := lumiNode(t)
	c := New(node)
	// The paper derives "other" by subtracting CPU, memory and accelerator
	// energy from node energy; it must match the aux meter.
	aux := c.Energy() - c.CPUEnergy() - c.MemoryEnergy()
	for card := 0; card < node.NumCards(); card++ {
		e, err := c.AccelEnergy(card)
		if err != nil {
			t.Fatal(err)
		}
		aux -= e
	}
	if math.Abs(aux-node.Aux.EnergyJ()) > 1e-6 {
		t.Errorf("derived aux = %v, meter = %v", aux, node.Aux.EnergyJ())
	}
}

func TestCollectionRateQuantization(t *testing.T) {
	node := cluster.NewNode(cluster.LUMIG())
	node.AdvanceHost(1.0, 0.2, 0.2)
	for _, d := range node.Devices {
		d.Idle(1.0)
	}
	c := New(node)
	e1 := c.Energy()
	// Advance by less than one collection period: the reading must not move.
	for _, d := range node.Devices {
		d.Idle(0.04)
	}
	node.AdvanceHost(0.04, 0.2, 0.2)
	e2 := c.Energy()
	if e1 != e2 {
		t.Errorf("counter moved within one 10 Hz period: %v -> %v", e1, e2)
	}
	// Advance beyond a period: now it refreshes.
	for _, d := range node.Devices {
		d.Idle(0.2)
	}
	node.AdvanceHost(0.2, 0.2, 0.2)
	if c.Energy() <= e2 {
		t.Error("counter did not refresh after a collection period")
	}
}

func TestA100NodeHasOneAccelPerCard(t *testing.T) {
	node := cluster.NewNode(cluster.CSCSA100())
	for _, d := range node.Devices {
		d.Idle(0.5)
	}
	node.AdvanceHost(0.5, 0.1, 0.1)
	c := New(node)
	if _, err := c.AccelEnergy(3); err != nil {
		t.Errorf("CSCS-A100 node should expose 4 accel files: %v", err)
	}
	if _, err := c.AccelEnergy(4); err == nil {
		t.Error("CSCS-A100 node exposes too many accel files")
	}
}

func TestPowerReflectsComponents(t *testing.T) {
	node := lumiNode(t)
	c := New(node)
	p := c.Power()
	if p <= 0 {
		t.Errorf("node power %v", p)
	}
	// At least the idle floors of all components.
	min := node.Spec.AuxW
	if p < min {
		t.Errorf("node power %v below aux floor %v", p, min)
	}
}

// TestFreshnessTimestampSemantics pins the collection contract through the
// energy file: a read returns the node's energy as of the last collection
// tick it refreshed on, so re-reads at the same time and within one period
// return the identical value. When virtual time advances with no
// intervening reads, the next read jumps straight to the current tick —
// ticks are not backfilled — and its value holds until the tick after.
func TestFreshnessTimestampSemantics(t *testing.T) {
	node := cluster.NewNode(cluster.LUMIG())
	advance := func(s float64) {
		for _, d := range node.Devices {
			d.Idle(s)
		}
		node.AdvanceHost(s, 0.2, 0.2)
	}
	advance(1.0)
	c := New(node)

	e1 := c.Energy()
	if e1 != node.TotalEnergyJ() || e1 != New(node).Energy() {
		t.Fatalf("read at t=1.0 s = %v, want the node's %v, as a second view reads it", e1, node.TotalEnergyJ())
	}
	if c.lastSampleTime*CollectionHz != 10 {
		t.Errorf("read at t=1.0 s sampled tick %v, want 10", c.lastSampleTime*CollectionHz)
	}
	// Re-read with no clock movement: the identical value.
	if again := c.Energy(); again != e1 {
		t.Errorf("re-read at same time changed the value: %v -> %v", e1, again)
	}

	// Advance 0.57 s in one go (5 collection periods elapse unread): the
	// next read reports the current tick, floor(1.57*10) = 15, and the
	// node's energy as of now, not as of some intermediate tick.
	advance(0.57)
	jump := c.Energy()
	if jump != node.TotalEnergyJ() {
		t.Errorf("read after the jump to t=1.57 s = %v, want the node's current %v", jump, node.TotalEnergyJ())
	}
	if c.lastSampleTime*CollectionHz != 15 {
		t.Errorf("read after the jump sampled tick %v, want 15", c.lastSampleTime*CollectionHz)
	}

	// Advance within the current 10 Hz quantum (1.57 s -> 1.59 s stays on
	// tick 15): the value must hold still while the node's energy moves.
	advance(0.02)
	if got := c.Energy(); got != jump || got == node.TotalEnergyJ() {
		t.Errorf("read within one period = %v, want the held %v (node now at %v)", got, jump, node.TotalEnergyJ())
	}
	// Past the next tick (1.59 s -> 1.61 s) it refreshes.
	advance(0.02)
	if got := c.Energy(); got != node.TotalEnergyJ() {
		t.Errorf("read past tick 16 = %v, want the node's current %v", got, node.TotalEnergyJ())
	}
}
