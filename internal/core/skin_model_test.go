package core

import (
	"testing"

	"sphenergy/internal/telemetry"
)

// TestNeighborRebuildEveryModelsRefresh checks the runner's Verlet-skin
// cost model: with reuse enabled, FindNeighbors still runs (and is
// attributed) every step, but refresh steps do only the configured
// fraction of a rebuild's work, so time and energy drop; the rebuild
// counter and cadence gauge report the schedule.
func TestNeighborRebuildEveryModelsRefresh(t *testing.T) {
	run := func(every int) (*Result, []telemetry.MetricSnapshot) {
		cfg := miniConfig()
		cfg.Steps = 8
		cfg.NeighborRebuildEvery = every
		cfg.Metrics = telemetry.NewRegistry()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, cfg.Metrics.Snapshot()
	}

	base, baseSnap := run(0)
	skin, skinSnap := run(4)

	// The phase exists on every step in both modes — refresh steps are
	// cheaper, not absent — so calls match and attribution stays complete.
	bf := base.Report.FunctionTotal(FnFindNeighbors)
	sf := skin.Report.FunctionTotal(FnFindNeighbors)
	if bf.Calls != 8 || sf.Calls != 8 {
		t.Fatalf("FindNeighbors calls = %d (rebuild-every-step) / %d (skin), want 8/8", bf.Calls, sf.Calls)
	}
	if sf.TimeS >= bf.TimeS {
		t.Errorf("skin FindNeighbors time %v not below rebuild-every-step %v", sf.TimeS, bf.TimeS)
	}
	if sf.GPUJ >= bf.GPUJ {
		t.Errorf("skin FindNeighbors energy %v not below rebuild-every-step %v", sf.GPUJ, bf.GPUJ)
	}
	if skin.WallTimeS >= base.WallTimeS {
		t.Errorf("skin wall time %v not below rebuild-every-step %v", skin.WallTimeS, base.WallTimeS)
	}

	// 8 steps at cadence 4 rebuild on steps 0 and 4; without reuse every
	// step rebuilds.
	for _, c := range []struct {
		mode         string
		snap         []telemetry.MetricSnapshot
		rebuilds, at float64
	}{
		{"rebuild-every-step", baseSnap, 8, 1},
		{"skin", skinSnap, 2, 4},
	} {
		if _, s, _ := findSample(c.snap, "neighbor_rebuilds_total"); s.Value != c.rebuilds {
			t.Errorf("%s: neighbor_rebuilds_total = %v, want %v", c.mode, s.Value, c.rebuilds)
		}
		if _, s, _ := findSample(c.snap, "neighbor_rebuild_interval_steps"); s.Value != c.at {
			t.Errorf("%s: neighbor_rebuild_interval_steps = %v, want %v", c.mode, s.Value, c.at)
		}
	}

	// Cadence 1 is the explicit opt-out and must be bit-identical to the
	// zero value.
	one, _ := run(1)
	if one.WallTimeS != base.WallTimeS || one.Report.TotalEnergyJ != base.Report.TotalEnergyJ {
		t.Errorf("NeighborRebuildEvery=1 diverges from 0: wall %v vs %v, energy %v vs %v",
			one.WallTimeS, base.WallTimeS, one.Report.TotalEnergyJ, base.Report.TotalEnergyJ)
	}
}
