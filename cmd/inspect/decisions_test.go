package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sphenergy"
	"sphenergy/internal/core"
	"sphenergy/internal/events"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/sampler"
	"sphenergy/internal/tuner"
)

// TestDecisionsEndToEnd is the acceptance path: tune through a ledger, run
// ManDyn with the same ledger and sampling on, export the ledger as JSONL,
// and audit it — the per-function table must join predicted EDP against the
// attribution's achieved EDP, and the sweet spot recovered from the sweep
// events must agree with the brute-force tuner within 1%.
func TestDecisionsEndToEnd(t *testing.T) {
	spec := sphenergy.MiniHPC()
	led := sphenergy.NewEventLedger(0)
	table, err := sphenergy.TuneFrequenciesObserved(spec, sphenergy.Turbulence, 10e6, 150, led)
	if err != nil {
		t.Fatal(err)
	}

	cfg := sphenergy.Config{
		System:           spec,
		Ranks:            2,
		Sim:              sphenergy.Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            3,
		Tracer:           sphenergy.NewTracer(2),
		Sampling:         sampler.Config{GPUHz: 100, NodeHz: 10},
		Events:           led,
		NewStrategy:      sphenergy.ManDyn(table),
	}
	res, err := sphenergy.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Attribution == nil {
		t.Fatal("sampled run produced no attribution")
	}

	// Round-trip through the JSONL export, as the verb consumes it.
	var buf bytes.Buffer
	if err := led.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	evs, truncated, err := events.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil || truncated {
		t.Fatalf("clean export did not read back: truncated=%v err=%v", truncated, err)
	}

	a := analyze(evs, res.Report.Attribution, 25)
	if a.Decisions == 0 || len(a.Rows) == 0 {
		t.Fatalf("no decisions audited: %+v", a)
	}
	if a.Simulation != "turbulence" || a.Steps != cfg.Steps {
		t.Errorf("run header wrong: sim=%q steps=%d", a.Simulation, a.Steps)
	}
	if !a.HaveSweep {
		t.Fatal("tuner sweep events did not reach the audit")
	}
	if !a.HaveAchieved {
		t.Fatal("attribution join produced no achieved EDP")
	}

	// The sweet spot recovered from sweep events must agree with an
	// independent brute-force tuner pass.
	pipeline, err := core.Pipeline(core.Turbulence)
	if err != nil {
		t.Fatal(err)
	}
	kernels := make(map[string]gpusim.KernelDesc, len(pipeline))
	for _, fn := range pipeline {
		kernels[fn.Name] = fn.Kernel(10e6, 150, spec.GPUSpec.Vendor)
	}
	brute := map[string]*tuner.Result{}
	for name, k := range kernels {
		r, err := tuner.TuneKernel(name, k, tuner.Config{
			Spec:      spec.GPUSpec,
			Params:    tuner.Params{MinMHz: 1005, MaxMHz: spec.GPUSpec.MaxSMClockMHz},
			Objective: tuner.EDP,
		})
		if err != nil {
			t.Fatal(err)
		}
		brute[name] = r
	}
	joined := 0
	for _, r := range a.Rows {
		if r.BestMHz == 0 {
			continue
		}
		b := brute[r.Function]
		if b == nil {
			t.Errorf("%s: audited but unknown to the brute-force tuner", r.Function)
			continue
		}
		bestEDP := b.Best.TimeS * b.Best.EnergyJ
		if r.BestMHz != b.Best.MHz {
			t.Errorf("%s: audit sweet spot %d MHz, brute force %d MHz", r.Function, r.BestMHz, b.Best.MHz)
		}
		if bestEDP > 0 && math.Abs(r.BestEDPJs-bestEDP)/bestEDP > 0.01 {
			t.Errorf("%s: sweet-spot EDP %.4g vs brute force %.4g (>1%%)", r.Function, r.BestEDPJs, bestEDP)
		}
		// ManDyn applied the tuned table, so the modal clock is the
		// sweet spot and no EDP is left on the table.
		if r.ClockMHz != table[r.Function] {
			t.Errorf("%s: modal clock %d, tuned table says %d", r.Function, r.ClockMHz, table[r.Function])
		}
		if r.LeftPct != 0 {
			t.Errorf("%s: tuned run reports %.2f%% left on the table", r.Function, r.LeftPct)
		}
		if r.PredEDPJs > 0 && r.AchievedEDPJs > 0 {
			joined++
		}
	}
	if joined == 0 {
		t.Error("no row joined predicted against achieved EDP")
	}
	if a.AggLeftPct != 0 {
		t.Errorf("aggregate left-on-table = %.2f%%, want 0 for a tuned run", a.AggLeftPct)
	}

	out := render(a)
	for _, want := range []string{"frequency decisions", "sweet spot", "left", "aggregate"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered audit missing %q:\n%s", want, out)
		}
	}
}

// TestDecisionsUntunedRunLeavesEDPOnTable pins the "left on the table" math: a
// static off-sweet-spot clock must show a positive aggregate loss.
func TestDecisionsUntunedRunLeavesEDPOnTable(t *testing.T) {
	spec := sphenergy.MiniHPC()
	led := sphenergy.NewEventLedger(0)
	if _, err := sphenergy.TuneFrequenciesObserved(spec, sphenergy.Turbulence, 10e6, 150, led); err != nil {
		t.Fatal(err)
	}
	// Alternate the pipeline between the max application clock and the
	// sweep floor — deliberately off the sweet spot, and different between
	// consecutive functions so ManDyn actually switches (an all-equal table
	// elides every transition and records no decisions).
	max := spec.GPUSpec.MaxSMClockMHz
	pipeline, err := core.Pipeline(core.Turbulence)
	if err != nil {
		t.Fatal(err)
	}
	fixed := map[string]int{}
	for i, fn := range pipeline {
		if i%2 == 0 {
			fixed[fn.Name] = max
		} else {
			fixed[fn.Name] = 1005
		}
	}
	cfg := sphenergy.Config{
		System:           spec,
		Ranks:            1,
		Sim:              sphenergy.Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            2,
		Events:           led,
		NewStrategy:      sphenergy.ManDyn(fixed),
	}
	if _, err := sphenergy.Run(cfg); err != nil {
		t.Fatal(err)
	}
	a := analyze(ledgerEvents(t, led), nil, 25)
	if a.Decisions == 0 {
		t.Fatal("no decisions recorded")
	}
	if a.AggLeftPct <= 0 {
		t.Errorf("max-clock run reports %.2f%% EDP left on the table, want > 0", a.AggLeftPct)
	}
}

// TestDecisionsWrappedLedgerKeepsSweep audits a ledger whose run wrapped
// its ring many times over: the sweep and the run header are its preamble,
// so the audit still names the run, predicts from the sweep and finds the
// sweet spot.
func TestDecisionsWrappedLedgerKeepsSweep(t *testing.T) {
	spec := sphenergy.MiniHPC()
	led := sphenergy.NewEventLedger(1024)
	table, err := sphenergy.TuneFrequenciesObserved(spec, sphenergy.Turbulence, 10e6, 150, led)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sphenergy.Config{System: spec, Ranks: 2, Sim: sphenergy.Turbulence,
		ParticlesPerRank: 10e6, Steps: 400, Events: led, NewStrategy: sphenergy.ManDyn(table)}
	if _, err := sphenergy.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if sum := led.Summary(); sum.Dropped == 0 {
		t.Fatalf("the run did not wrap the ledger: %+v", sum)
	}
	a := analyze(ledgerEvents(t, led), nil, 25)
	if a.Simulation != "turbulence" || a.Strategy != "mandyn" || a.Steps != cfg.Steps {
		t.Errorf("run header %q/%q/%d, want turbulence/mandyn/%d", a.Simulation, a.Strategy, a.Steps, cfg.Steps)
	}
	if !a.HaveSweep || a.Decisions == 0 {
		t.Fatalf("sweep %v, %d decisions: the preamble did not survive", a.HaveSweep, a.Decisions)
	}
	for _, r := range a.Rows {
		if r.PredEDPJs <= 0 || r.BestMHz == 0 {
			t.Errorf("%s: predicted %g at %d MHz, sweet spot %d MHz", r.Function, r.PredEDPJs, r.ClockMHz, r.BestMHz)
		}
	}
	if out := render(a); !strings.Contains(out, "aggregate: this run left") {
		t.Errorf("audit of the wrapped ledger has no aggregate:\n%s", out)
	}
}

// TestAnalyzeTruncatedLedger checks the audit degrades gracefully on a
// partial JSONL file: the valid prefix is analyzed, the truncation is
// surfaced, and nothing panics.
func TestAnalyzeTruncatedLedger(t *testing.T) {
	led := events.NewLedger(0)
	led.BeginRun("turbulence", "mandyn", 4)
	for i := 0; i < 8; i++ {
		led.Emit(events.Event{TimeS: float64(i), Step: i, Rank: 0, Type: events.FreqDecision,
			Subject: "MomentumEnergy", RequestedMHz: 1005, AppliedMHz: 1005})
	}
	var buf bytes.Buffer
	if err := led.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-20] // chop mid-line
	evs, truncated, err := events.ReadJSONL(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Fatal("chopped ledger not reported as truncated")
	}
	a := analyze(evs, nil, 25)
	if a.Decisions == 0 {
		t.Errorf("valid prefix lost its decisions: %+v", a)
	}
	// As the decisions verb does it: from the file, with the size of what
	// was not read.
	path := filepath.Join(t.TempDir(), "cut.jsonl")
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, beyond, err := events.ReadFile(path)
	if err != nil || len(fromFile) != len(evs) {
		t.Fatalf("ReadFile: %d events, err %v; ReadJSONL read %d", len(fromFile), err, len(evs))
	}
	lastLine := bytes.LastIndexByte(cut, '\n') + 1
	if want := int64(len(cut) - lastLine); beyond != want {
		t.Fatalf("ReadFile reports %d bytes beyond the valid prefix, the half line is %d", beyond, want)
	}
	a.Truncated, a.BeyondBytes = beyond > 0, beyond
	if want := fmt.Sprintf("truncated ledger: %d bytes beyond", beyond); !strings.Contains(render(a), want) {
		t.Errorf("rendered audit does not say %q:\n%s", want, render(a))
	}
}

// TestAnalyzeEmptyLedgerHasNoDecisions pins the verb's failure mode: a
// ledger without frequency decisions audits to zero rows (it exits 1).
func TestAnalyzeEmptyLedgerHasNoDecisions(t *testing.T) {
	a := analyze(nil, nil, 25)
	if a.Decisions != 0 || len(a.Rows) != 0 {
		t.Fatalf("empty ledger produced decisions: %+v", a)
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

// TestDecisionsNotAppliedAreMissed: a decision whose set never reached the
// device prints as not applied, takes no prediction, and counts as missed;
// the function's applied decisions are audited as before.
func TestDecisionsNotAppliedAreMissed(t *testing.T) {
	evs := []events.Event{{Type: events.RunStart, Subject: "turbulence", Detail: "mandyn", Value: 1}}
	for _, fn := range []string{"A", "B"} {
		evs = append(evs,
			events.Event{Type: events.TunerMeasure, Subject: fn, AppliedMHz: 1000, PredEDPJs: 2},
			events.Event{Type: events.TunerMeasure, Subject: fn, AppliedMHz: 1200, PredEDPJs: 1})
	}
	decision := func(fn string, applied int, detail string) events.Event {
		return events.Event{Type: events.FreqDecision, Subject: fn, Detail: detail, RequestedMHz: 1200, AppliedMHz: applied}
	}
	evs = append(evs, decision("A", 1200, ""), decision("A", 1100, events.NotApplied), decision("A", 1200, ""),
		decision("B", 900, events.NotApplied), decision("B", 900, events.NotApplied))

	a := analyze(evs, nil, 25)
	want := []row{
		{Function: "A", Decisions: 3, NotApplied: 1, ClockMHz: 1200, PredEDPJs: 1, BestMHz: 1200, BestEDPJs: 1},
		{Function: "B", Decisions: 2, NotApplied: 2, BestMHz: 1200, BestEDPJs: 1},
	}
	if !reflect.DeepEqual(a.Rows, want) || a.Decisions != 5 || a.Missed != 3 || a.AggLeftPct != 0 {
		t.Fatalf("audit %d decisions, %d missed, left %g%%, rows %+v; want 5, 3, 0 and %+v",
			a.Decisions, a.Missed, a.AggLeftPct, a.Rows, want)
	}
	out := render(a)
	for _, line := range []string{
		"A         3          1200 MHz (1 not applied)  1 J·s          -         -    1200 MHz    0.0%",
		"B         2          not applied               -              -         -    1200 MHz    -",
		"missed: 3 of 5 decisions never reached the device (not applied)",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("audit lacks the line %q:\n%s", line, out)
		}
	}
}
