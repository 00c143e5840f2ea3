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
// run into the one stream that records them, the ledger's freq-decision
// rows; the trace, on in the same run, holds no decision instants. Setup
// locks the default 1410 MHz, so in one step the functions before IAD leave
// the clock alone; IAD sets 1005 and reads 1005/1005; AVSwitches asks for
// the 1005 it already has, an elided set that leaves no row; MomentumEnergy
// falls back to the default and reads 1410/1410.
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
	var ledgered []string
	for _, ev := range cfg.Events.Events() {
		if ev.Type == events.FreqDecision {
			ledgered = append(ledgered, fmt.Sprintf("%s %d/%d", ev.Subject, ev.RequestedMHz, ev.AppliedMHz))
		}
	}
	if fmt.Sprint(ledgered) != fmt.Sprint(want) {
		t.Errorf("ledger decisions %v, want %v", ledgered, want)
	}
	if n := decisionInstants(cfg.Tracer); n != 0 {
		t.Errorf("the trace holds %d decision instants, want none", n)
	}
}

// decisionInstants counts the trace's decision:<fn> instants.
func decisionInstants(tr *telemetry.Tracer) uint64 {
	var n uint64
	for _, sp := range tr.Spans() {
		if sp.Instant && strings.HasPrefix(sp.Name, "decision:") {
			n++
		}
	}
	return n
}

// TestFreqDecisionRowsPinned holds the ledger's freq-decision rows on two
// runs, and requires the trace beside them to hold no decision instants:
// the recorded 8-rank, 300-step ManDyn run (four sets a step per rank) and
// the chaos sweep's 2-rank run for seed 1 (chaosConfig), whose clamped-clock
// window sits under a resilient setter. The pins were the clock tap's set
// counts, 9 608 and 26, which commit f70485f's InstrumentedSetter wrapper
// exported as freq_switches_total; the tap no longer counts, and the rows
// the ledger keeps are those sets less each rank's one Setup set, which
// makes no decision row.
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
		{"chaos-1", chaosConfig(cluster.MiniHPC(), 1, 2, 3, false), 26 - 2},
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
		rows := c.cfg.Events.Summary().ByType[events.FreqDecision]
		if instants := decisionInstants(c.cfg.Tracer); rows != c.want || instants != 0 {
			t.Errorf("%s: %d freq-decision rows, %d decision instants, want %d and 0",
				c.name, rows, instants, c.want)
		}
	}
}
