package traceanalysis

import (
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/faults"
	"sphenergy/internal/telemetry"
)

// TestCoreRunStragglerCriticalPath is the acceptance check for the trace
// pipeline end to end: a full core.Run with an internal/faults straggler
// rule on rank 2, traced, exported, re-parsed, analyzed — the straggler
// must come out as the critical-path rank with ≥90% of the added barrier
// wait attributed to it.
func TestCoreRunStragglerCriticalPath(t *testing.T) {
	run := func(plan *faults.Plan) *Analysis {
		cfg := core.Config{
			System:           cluster.MiniHPC(),
			Ranks:            4,
			Sim:              core.Turbulence,
			ParticlesPerRank: 10e6,
			Steps:            4,
			Faults:           plan,
		}
		cfg.Tracer = telemetry.NewTracer(cfg.Ranks)
		if _, err := core.Run(cfg); err != nil {
			t.Fatal(err)
		}
		return Analyze(FromSpanEvents(cfg.Tracer.Spans()), Options{})
	}

	healthy := run(nil)
	slowed := run(&faults.Plan{
		Name: "straggler-rank2",
		Seed: 11,
		Rules: []faults.Rule{
			{Kind: faults.Straggler, Target: faults.TargetRank, Ranks: []int{2}, Factor: 3},
		},
	})

	if slowed.BarrierCount == 0 {
		t.Fatal("no barriers reconstructed from core.Run trace")
	}
	addedWait := slowed.TotalWaitS - healthy.TotalWaitS
	if addedWait <= 0 {
		t.Fatalf("straggler did not add wait: healthy %g, slowed %g",
			healthy.TotalWaitS, slowed.TotalWaitS)
	}
	addedCaused := slowed.CausedWaitS(2) - healthy.CausedWaitS(2)
	if frac := addedCaused / addedWait; frac < 0.9 {
		t.Errorf("attributed %.1f%% of added wait to rank 2, want >= 90%% "+
			"(added %.4fs, attributed %.4fs)", 100*frac, addedWait, addedCaused)
	}
	if slowed.Stragglers[0].Rank != 2 {
		t.Errorf("top straggler = %d, want 2", slowed.Stragglers[0].Rank)
	}
}
