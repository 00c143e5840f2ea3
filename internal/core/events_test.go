package core

import (
	"bytes"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/events"
	"sphenergy/internal/faults"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/sampler"
)

// TestRunEmitsDecisionLedger drives a ManDyn run with the ledger attached
// and checks every coordinator-side event family shows up with the right
// counts and correlation fields, after the sweep row the ledger held before
// the run, and that a frequency decision carries no copy of the sweep.
func TestRunEmitsDecisionLedger(t *testing.T) {
	led := events.NewLedger(0)
	sweep := events.Event{Step: -1, Rank: -1, Type: events.TunerMeasure, Subject: FnIAD,
		AppliedMHz: 1005, PredTimeS: 0.5, PredEnergyJ: 100, PredPowerW: 200, PredEDPJs: 50}
	led.Emit(sweep)
	cfg := telemetryTestConfig()
	cfg.Steps = 4
	cfg.Events = led
	cfg.NewStrategy = func() freqctl.Strategy {
		return &freqctl.ManDyn{Table: map[string]int{FnIAD: 1005, FnMomentum: 1110}}
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	by := led.Summary().ByType
	if by[events.RunStart] != 1 || by[events.RunEnd] != 1 {
		t.Errorf("run boundary events = %d start / %d end, want 1/1", by[events.RunStart], by[events.RunEnd])
	}
	if by[events.StepDone] != uint64(cfg.Steps) {
		t.Errorf("step events = %d, want %d", by[events.StepDone], cfg.Steps)
	}
	if by[events.FreqDecision] == 0 {
		t.Fatal("no frequency decisions despite ManDyn switching clocks")
	}

	evs := ledgerEvents(t, led)
	if sweep.Seq = 1; evs[0] != sweep || evs[1].Type != events.RunStart {
		t.Errorf("the ledger starts %+v, %s; want the sweep row, then the run-start", evs[0], evs[1].Type)
	}
	sawIAD, sawStepField := false, false
	var lastT float64
	for _, ev := range evs {
		if ev.TimeS < lastT && ev.Type != events.RunStart {
			// Coordinator events are time-ordered; rank events may interleave
			// within a phase but never run backwards past a step boundary.
			if ev.Type == events.StepDone {
				t.Errorf("coordinator event %s at t=%g after t=%g", ev.Type, ev.TimeS, lastT)
			}
		}
		if ev.Type == events.StepDone {
			lastT = ev.TimeS
			if ev.Value <= 0 {
				t.Errorf("step %d carries no energy", ev.Step)
			}
		}
		if ev.Type == events.FreqDecision {
			if ev.Step >= 0 {
				sawStepField = true
			}
			if ev.PredTimeS != 0 || ev.PredEnergyJ != 0 || ev.PredPowerW != 0 || ev.PredEDPJs != 0 {
				t.Errorf("decision row copies a prediction: %+v", ev)
			}
			sawIAD = sawIAD || ev.Subject == FnIAD && ev.AppliedMHz == 1005
		}
	}
	if !sawIAD {
		t.Error("no IAD@1005 decision to join to the sweep row")
	}
	if !sawStepField {
		t.Error("no in-loop frequency decision carried a step index")
	}
}

// TestChaosRunEmitsResilienceEvents checks the fault-path families: clamps
// from the ranks' clock sets, rank failures, the degradation transition, and
// sampler degradation edges all land in the ledger.
func TestChaosRunEmitsResilienceEvents(t *testing.T) {
	led := events.NewLedger(0)
	cfg := Config{
		System:           cluster.CSCSA100(),
		Ranks:            4,
		Sim:              Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            4,
		Sampling:         sampler.Config{GPUHz: 100, NodeHz: 10},
		Degradation:      DegradeRedistribute,
		Events:           led,
		NewStrategy: func() freqctl.Strategy {
			return &freqctl.ManDyn{Table: map[string]int{
				FnMomentum: 1410, FnIAD: 1410,
			}, Default: 1005}
		},
		Faults: &faults.Plan{Name: "chaos", Seed: 42, Rules: []faults.Rule{
			{Kind: faults.Transient, Target: faults.TargetSensor, Probability: 0.3},
			{Kind: faults.ClampedClock, Target: faults.TargetClock, MHz: 900},
			{Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{3}, Step: 2},
		}},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	by := led.Summary().ByType
	if by[events.FreqClamp] == 0 {
		t.Errorf("no freq-clamp events under a clamping injector: %v", by)
	}
	if by[events.RankFail] != 1 {
		t.Errorf("rank-fail events = %d, want 1: %v", by[events.RankFail], by)
	}
	if by[events.Degradation] == 0 {
		t.Errorf("no degradation transition under redistribute: %v", by)
	}
	if by[events.SamplerDegraded] == 0 {
		t.Errorf("no sampler degradation edges under sensor faults: %v", by)
	}
	for _, ev := range ledgerEvents(t, led) {
		if ev.Type == events.RankFail && (ev.Rank != 3 || ev.Step != 2) {
			t.Errorf("rank-fail misattributed: %+v", ev)
		}
	}
}

// TestLedgerDoesNotPerturbRun is the determinism acceptance gate: a seeded
// run with the ledger enabled must be bit-identical to one without it.
func TestLedgerDoesNotPerturbRun(t *testing.T) {
	mk := func(led *events.Ledger) Config {
		cfg := telemetryTestConfig()
		cfg.Steps = 3
		cfg.Events = led
		cfg.NewStrategy = func() freqctl.Strategy {
			return &freqctl.ManDyn{Table: map[string]int{FnIAD: 1005, FnMomentum: 1110}}
		}
		return cfg
	}
	with, err := Run(mk(events.NewLedger(0)))
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(mk(nil))
	if err != nil {
		t.Fatal(err)
	}
	if with.WallTimeS != without.WallTimeS || with.Report.TotalEnergyJ != without.Report.TotalEnergyJ {
		t.Fatalf("ledger perturbed the run: wall %v vs %v, energy %v vs %v",
			with.WallTimeS, without.WallTimeS, with.Report.TotalEnergyJ, without.Report.TotalEnergyJ)
	}
}

// ledgerEvents reads the ledger back as inspect does: its JSONL export,
// parsed.
func ledgerEvents(t testing.TB, led *events.Ledger) []events.Event {
	t.Helper()
	var file bytes.Buffer
	if err := led.WriteJSONL(&file); err != nil {
		t.Fatal(err)
	}
	evs, truncated, err := events.ReadJSONL(&file)
	if err != nil || truncated {
		t.Fatalf("ledger read back: truncated %v, err %v", truncated, err)
	}
	return evs
}
