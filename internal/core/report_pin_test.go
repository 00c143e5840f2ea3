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

// TestReportJSONPinned holds the per-rank report — every rank's list of
// FunctionStats in recording order, and the fault summary — to SHA-256s
// recorded at commit fc86c67, before the runner accounted by pipeline index
// (the second at f70485f, the last commit whose profiles could carry a
// per-call series, with the series off: the bytes every program wrote; the
// second re-recorded at 05faf06 without the neighbor-refresh cadence that
// left Config, the hash that commit computes for the same run). All four
// were re-recorded once when a rank's functions became one list in place of
// a function_order list beside a map keyed by name: commit 6058faf's
// reports for the same runs, each rank's map rewritten as the list in its
// function_order, are these bytes.
// internal/experiments/pin_test.go pins rendered figures, which read the
// report through sums; this pins the report itself. The
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
			"aaac0489a81717c6c9b20b350d7df34cf9cefd8952b8881dc91e0f9c8c43f4c6"},
		{"evrard-2", Config{System: cluster.LUMIG(), Ranks: 2, Sim: Evrard,
			ParticlesPerRank: 10e6, Steps: 8, Seed: 7},
			"f074b39a297837d9f3cb282f446603a8f2152b3502b6ba8d59ba68af23dcece7"},
		{"crash-drop-rank-8", Config{System: cluster.CSCSA100(), Ranks: 8, Sim: Turbulence,
			ParticlesPerRank: 10e6, Steps: 8, Seed: 42, NewStrategy: mandyn,
			Degradation: DegradeDropRank,
			Faults: &faults.Plan{Name: "crash-noisy", Seed: 11, Rules: []faults.Rule{
				{Kind: faults.Transient, Target: faults.TargetSensor, Probability: 0.1},
				{Kind: faults.Stuck, Target: faults.TargetSensor, Probability: 0.05, Burst: 3},
				{Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{5}, Step: 3},
			}}},
			"59dfffb3291c30d49efa728b1244d9e2e1db320d30edb7ca1c8483ea87de7c08"},
		{"crash-first-phase-4", Config{System: cluster.LUMIG(), Ranks: 4, Sim: Evrard,
			ParticlesPerRank: 10e6, Steps: 3, Seed: 5, Degradation: DegradeRedistribute,
			Faults: &faults.Plan{Name: "crash-at-once", Seed: 2, Rules: []faults.Rule{
				{Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{1}, Step: 0},
			}}},
			"05302fb0a40334c73a32fd13dda67d98e8bdaf34b074092b41bd4dc569523e7e"},
	} {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.cfg.Faults != nil {
			if len(res.Faults.Failures) != 1 {
				t.Fatalf("%s: plan inert: failures %+v", c.name, res.Faults.Failures)
			}
			dead := res.Report.Ranks[res.Faults.Failures[0].Rank]
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
