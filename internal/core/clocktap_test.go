package core

import (
	"fmt"
	"strings"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/events"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

// TestDecisionsReachTracerAndLedger follows ManDyn's clock decisions from a
// run into both streams that record them: the trace's decision:<fn> instants
// and the ledger's freq-decision rows. Setup locks the default 1410 MHz, so
// in one step the functions before IAD leave the clock alone; IAD sets 1005
// and reads 1005/1005; AVSwitches asks for the 1005 it already has, an
// elided set that leaves no instant and no row; MomentumEnergy falls back to
// the default and reads 1410/1410.
func TestDecisionsReachTracerAndLedger(t *testing.T) {
	cfg := Config{System: cluster.CSCSA100(), Ranks: 1, Sim: Turbulence,
		ParticlesPerRank: 10e6, Steps: 1, Seed: 42,
		Tracer: telemetry.NewTracer(1), Events: events.NewLedger(0),
		NewStrategy: func() freqctl.Strategy {
			return &freqctl.ManDyn{Table: map[string]int{FnIAD: 1005, FnAVSwitches: 1005}}
		}}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	want := []string{
		fmt.Sprintf("%s %d/%d", FnIAD, 1005, 1005),
		fmt.Sprintf("%s %d/%d", FnMomentum, 1410, 1410),
	}
	var traced, ledgered []string
	var tracedAt, ledgeredAt []float64
	for _, sp := range cfg.Tracer.Spans() {
		if fn, ok := strings.CutPrefix(sp.Name, "decision:"); ok && sp.Instant {
			req, _ := sp.Arg("requested_mhz")
			applied, _ := sp.Arg("applied_mhz")
			traced = append(traced, fmt.Sprintf("%s %.0f/%.0f", fn, req, applied))
			tracedAt = append(tracedAt, sp.StartS)
		}
	}
	for _, ev := range cfg.Events.Events() {
		if ev.Type == events.FreqDecision {
			ledgered = append(ledgered, fmt.Sprintf("%s %d/%d", ev.Subject, ev.RequestedMHz, ev.AppliedMHz))
			ledgeredAt = append(ledgeredAt, ev.TimeS)
		}
	}
	if fmt.Sprint(traced) != fmt.Sprint(want) {
		t.Errorf("trace decisions %v, want %v", traced, want)
	}
	if fmt.Sprint(ledgered) != fmt.Sprint(want) {
		t.Errorf("ledger decisions %v, want %v", ledgered, want)
	}
	if fmt.Sprint(tracedAt) != fmt.Sprint(ledgeredAt) {
		t.Errorf("trace decisions at %v s, ledger rows at %v s", tracedAt, ledgeredAt)
	}
}

// TestFreqDecisionRowsPinned holds the ledger's freq-decision rows, and the
// trace's decision instants beside them, on two runs: the recorded 8-rank,
// 300-step ManDyn run (four sets a step per rank) and the chaos sweep's
// 2-rank run for seed 1 (chaosConfig), whose clamped-clock window sits under
// a resilient setter. The pins were the clock tap's set counts, 9 608 and
// 26, which commit f70485f's InstrumentedSetter wrapper exported as
// freq_switches_total; the tap no longer counts, and the rows the ledger
// keeps are those sets less each rank's one Setup set, which makes no
// decision row.
func TestFreqDecisionRowsPinned(t *testing.T) {
	mandyn := func() freqctl.Strategy {
		return &freqctl.ManDyn{Table: map[string]int{FnIAD: 1005, FnMomentum: 1110}}
	}
	for _, c := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"recorded-mandyn-8", Config{System: cluster.MiniHPC(), Ranks: 8, Sim: Turbulence,
			ParticlesPerRank: 10e6, Steps: 300, Seed: 42, NewStrategy: mandyn}, 9608 - 8},
		{"chaos-1", chaosConfig(1, 2, 3, false), 26 - 2},
	} {
		c.cfg.Tracer = telemetry.NewTracer(c.cfg.Ranks)
		c.cfg.Events = events.NewLedger(0)
		c.cfg.Sampling = sampler.Config{GPUHz: 100, NodeHz: 10}
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.cfg.Faults != nil && res.Faults.Clamped == 0 {
			t.Fatalf("%s: the clamped-clock window clamped nothing", c.name)
		}
		var instants uint64
		for _, sp := range c.cfg.Tracer.Spans() {
			if sp.Instant && strings.HasPrefix(sp.Name, "decision:") {
				instants++
			}
		}
		rows := c.cfg.Events.Summary().ByType[events.FreqDecision]
		if rows != c.want || instants != c.want {
			t.Errorf("%s: %d freq-decision rows, %d decision instants, want %d each",
				c.name, rows, instants, c.want)
		}
	}
}
