package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
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
	a := analyze(led.Events(), nil, 25)
	if a.Decisions == 0 {
		t.Fatal("no decisions recorded")
	}
	if a.AggLeftPct <= 0 {
		t.Errorf("max-clock run reports %.2f%% EDP left on the table, want > 0", a.AggLeftPct)
	}
}

// TestAnalyzeTruncatedLedger checks the audit degrades gracefully on a
// partial JSONL file: the valid prefix is analyzed, the truncation is
// surfaced, and nothing panics.
func TestAnalyzeTruncatedLedger(t *testing.T) {
	led := events.NewLedger(0)
	led.BeginRun("turbulence", "mandyn", 4)
	for i := 0; i < 8; i++ {
		led.FreqDecision(float64(i), i, 0, "MomentumEnergy", 1005, 1005)
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
