// Package pmcounters emulates the HPE/Cray out-of-band power management
// counters: the values of the read-only /sys/cray/pm_counters/ files,
// which publish node, CPU, memory and accelerator energy at a default
// 10 Hz collection rate (Martin, CUG 2014/2018). Two of them are served:
// the node's `energy` file, which the runs sample and Slurm's accounting
// reads, and the per-card `accelN_energy` files.
//
// Two fidelity details matter for the paper's analysis:
//
//   - accelerator energy is reported per *card* (accel0..accel3), so on
//     LUMI-G each file covers the two GCDs — two MPI ranks — of one MI250X;
//   - readings update at the collection rate, so two reads within one
//     period return the same value (the quantization the paper's §IV-A
//     validation has to live with).
//
// # Sampling-rate contract
//
// Counters refresh only on collection ticks: a read at virtual time t
// reflects the hardware state at tick floor(t*CollectionHz)/CollectionHz,
// never later. Ticks are not backfilled — if several periods elapse
// between reads, intermediate samples simply never existed, and the next
// read jumps straight to the current tick. Consequently a consumer
// sampling the energy file at rate f sees at most min(f, CollectionHz)
// distinct values per second, and energy deltas between consecutive reads
// are quantized to whole collection periods. Cross-source validation
// against these counters must therefore tolerate up to one period's worth
// of energy (node power / CollectionHz) of skew per endpoint.
package pmcounters

import (
	"fmt"

	"sphenergy/internal/cluster"
)

// CollectionHz is the default Cray PM collection rate.
const CollectionHz = 10

// Counters exposes the pm_counters view of one node.
type Counters struct {
	node *cluster.Node
	// freshness quantization: counters appear updated only at multiples of
	// the collection period in node virtual time.
	periodS float64
	miss    func() bool

	// The last collection tick's time and the files' values at it.
	lastSampleTime float64
	nodeJ          float64
	accelJ         []float64
}

// SetMissHook installs (or clears, with nil) the fault-injection hook. It
// is consulted once per due collection tick, and again on every read while
// that tick stays missed; true misses the tick, so readers keep seeing the
// previous tick's values — exactly the pm_counters staleness mode
// documented for the real hardware. Production paths leave it nil.
func (c *Counters) SetMissHook(miss func() bool) { c.miss = miss }

// New creates a pm_counters view over a node with the default 10 Hz rate.
func New(node *cluster.Node) *Counters {
	return &Counters{node: node, periodS: 1.0 / CollectionHz, lastSampleTime: -1}
}

// nowS estimates node time as the maximum component time (the OOB
// controller's wall clock tracks the furthest-advanced component).
func (c *Counters) nowS() float64 {
	t := c.node.Aux.NowS()
	for _, d := range c.node.Devices {
		if dt := d.Now(); dt > t {
			t = dt
		}
	}
	return t
}

// refresh resamples the hardware if a collection period has elapsed.
func (c *Counters) refresh() {
	now := c.nowS()
	tick := float64(int(now/c.periodS)) * c.periodS
	if c.lastSampleTime >= 0 && tick <= c.lastSampleTime {
		return
	}
	if c.miss != nil && c.miss() {
		// Collection missed its tick: cached values stay stale and
		// lastSampleTime is not advanced, so the next read retries.
		return
	}
	c.lastSampleTime = tick
	c.nodeJ = c.node.TotalEnergyJ()
	c.accelJ = c.accelJ[:0]
	for card := 0; card < c.node.NumCards(); card++ {
		c.accelJ = append(c.accelJ, c.node.CardEnergyJ(card))
	}
}

// Energy returns the node-level cumulative energy in joules (the `energy`
// file).
func (c *Counters) Energy() float64 {
	c.refresh()
	return c.nodeJ
}

// AccelEnergy returns the `accelN_energy` file value in joules for card n.
func (c *Counters) AccelEnergy(n int) (float64, error) {
	c.refresh()
	if n < 0 || n >= len(c.accelJ) {
		return 0, fmt.Errorf("pmcounters: no accel%d on node %s", n, c.node.Spec.Name)
	}
	return c.accelJ[n], nil
}
