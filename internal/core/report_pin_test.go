package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/faults"
	"sphenergy/internal/freqctl"
)

// TestReportJSONPinned holds the per-rank report — every rank's
// function_order, FunctionStats and Series, and the fault summary — to
// SHA-256s recorded at commit fc86c67, before the runner accounted by
// pipeline index. internal/experiments/pin_test.go pins rendered figures,
// which read the report through sums; this pins the report itself. The
// third run crashes rank 5 in step 3 under drop-rank with a noisy sensor on
// every rank: a dead rank skips phases, so an accounting slot must neither
// resurrect nor reorder a function, and the sensor fault stream must be
// drawn from exactly as often as before. The fourth kills rank 1 in the
// first phase of the run, so its profile ends at one function.
func TestReportJSONPinned(t *testing.T) {
	mandyn := func() freqctl.Strategy {
		return &freqctl.ManDyn{Table: map[string]int{FnIAD: 1005, FnMomentum: 1110}, Default: 1410}
	}
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"turbulence-mandyn-8", Config{System: cluster.CSCSA100(), Ranks: 8, Sim: Turbulence,
			ParticlesPerRank: 10e6, Steps: 12, Seed: 42, NewStrategy: mandyn},
			"92134dbb0f78243ef103502a05b4c7447fad89a5585b9efd6379c5904aab9357"},
		{"evrard-series-2", Config{System: cluster.LUMIG(), Ranks: 2, Sim: Evrard,
			ParticlesPerRank: 10e6, Steps: 8, Seed: 7, KeepSeries: true, NeighborRebuildEvery: 3},
			"54751e593fe6e0f4f7d7f8c9c38a0450cbe101094a4a990e4d16acb83aea79fa"},
		{"crash-drop-rank-8", Config{System: cluster.CSCSA100(), Ranks: 8, Sim: Turbulence,
			ParticlesPerRank: 10e6, Steps: 8, Seed: 42, NewStrategy: mandyn,
			Degradation: DegradeDropRank,
			Faults: &faults.Plan{Name: "crash-noisy", Seed: 11, Rules: []faults.Rule{
				{Kind: faults.Transient, Target: faults.TargetSensor, Probability: 0.1},
				{Kind: faults.Stuck, Target: faults.TargetSensor, Probability: 0.05, Burst: 3},
				{Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{5}, Step: 3},
			}}},
			"9d8b99cd2ec377650d6b27348c88131727e8a27cf160d2f320cc7e8610cd5939"},
		{"crash-first-phase-4", Config{System: cluster.LUMIG(), Ranks: 4, Sim: Evrard,
			ParticlesPerRank: 10e6, Steps: 3, Seed: 5, Degradation: DegradeRedistribute,
			Faults: &faults.Plan{Name: "crash-at-once", Seed: 2, Rules: []faults.Rule{
				{Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{1}, Step: 0},
			}}},
			"7bfa721e493440e37d5612f300432f2b6ff626278a29699d663a7164078c08ff"},
	} {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.cfg.Faults != nil {
			if len(res.Failures) != 1 {
				t.Fatalf("%s: plan inert: failures %+v", c.name, res.Failures)
			}
			dead := res.Report.Ranks[res.Failures[0].Rank]
			if names := dead.FunctionNames(); len(names) == len(res.Report.Ranks[0].FunctionNames()) &&
				dead.Get(FnUpdate).Calls >= res.Report.Ranks[0].Get(FnUpdate).Calls {
				t.Fatalf("%s: dead rank %d recorded as much as a live one: %v", c.name, dead.Rank, names)
			}
			if len(res.Faults.Injected) < len(c.cfg.Faults.Rules) {
				t.Fatalf("%s: plan inert: injected %+v", c.name, res.Faults.Injected)
			}
		}
		var buf bytes.Buffer
		if err := res.Report.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: report JSON sha256 = %s, want %s", c.name, got, c.want)
		}
	}
}
