package core

import (
	"fmt"
	"strings"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/events"
	"sphenergy/internal/faults"
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

// TestClockTapMetricsPinned holds freq_switches_total and the count of
// freq_switch_latency_s to what the runner exported at commit f70485f,
// when an InstrumentedSetter wrapper counted the sets, on two runs: the
// recorded 8-rank, 300-step ManDyn run (one Setup set plus four sets a step
// per rank) and faultbench's chaos plan for seed 1, whose clamped-clock
// window sits under a resilient setter.
func TestClockTapMetricsPinned(t *testing.T) {
	mandyn := func() freqctl.Strategy {
		return &freqctl.ManDyn{Table: map[string]int{FnIAD: 1005, FnMomentum: 1110}}
	}
	spec := cluster.MiniHPC()
	max := spec.GPUSpec.MaxSMClockMHz
	chaos := &faults.Plan{Name: "chaos-1", Seed: 1, Rules: []faults.Rule{
		{Kind: faults.Transient, Target: faults.TargetSensor, Probability: 0.15},
		{Kind: faults.Stuck, Target: faults.TargetNodeSensor, Probability: 0.05, Burst: 3},
		{Kind: faults.ClampedClock, Target: faults.TargetClock, MHz: max * 2 / 3, StartS: 5},
		{Kind: faults.Straggler, Target: faults.TargetRank, Ranks: []int{0}, Probability: 0.1, Factor: 2},
	}}
	for _, c := range []struct {
		name string
		cfg  Config
		want float64
	}{
		{"recorded-mandyn-8", Config{System: spec, Ranks: 8, Sim: Turbulence,
			ParticlesPerRank: 10e6, Steps: 300, Seed: 42, NewStrategy: mandyn}, 9608},
		{"faultbench-chaos-1", Config{System: spec, Ranks: 2, Sim: Turbulence,
			ParticlesPerRank: 10e6, Steps: 3, Seed: 1, Faults: chaos,
			NewStrategy: func() freqctl.Strategy {
				return &freqctl.ManDyn{Table: map[string]int{FnMomentum: max, FnIAD: max}, Default: max * 3 / 4}
			}}, 26},
	} {
		c.cfg.Tracer = telemetry.NewTracer(c.cfg.Ranks)
		c.cfg.Metrics = telemetry.NewRegistry()
		c.cfg.Events = events.NewLedger(0)
		c.cfg.Sampling = sampler.Config{GPUHz: 100, NodeHz: 10}
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.cfg.Faults != nil && res.Faults.Clamped == 0 {
			t.Fatalf("%s: the clamped-clock window clamped nothing", c.name)
		}
		sets := c.cfg.Metrics.Counter("freq_switches_total", "").Value()
		timed := c.cfg.Metrics.Histogram("freq_switch_latency_s", "", telemetry.ExpBuckets(1e-7, 10, 8)).Count()
		if sets != c.want || float64(timed) != c.want {
			t.Errorf("%s: freq_switches_total %v, freq_switch_latency_s_count %d, want %v each",
				c.name, sets, timed, c.want)
		}
	}
}
