package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/events"
	"sphenergy/internal/faults"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

// brittleStrategy applies a fixed clock, then fails on command: Setup
// fails when failSetup is set, Apply fails after `applies` successes.
type brittleStrategy struct {
	mhz       int
	failSetup bool
	applies   int
	calls     int
}

func (b *brittleStrategy) Name() string { return "brittle" }

func (b *brittleStrategy) Setup(s freqctl.Setter) error {
	if b.failSetup {
		return errors.New("injected setup failure")
	}
	_, err := s.SetSMClock(b.mhz)
	return err
}

func (b *brittleStrategy) Apply(s freqctl.Setter, fn string) error {
	b.calls++
	if b.applies >= 0 && b.calls > b.applies {
		return errors.New("injected apply failure")
	}
	return nil
}

func (b *brittleStrategy) Teardown(s freqctl.Setter) error { return s.ResetClocks() }

// assertClocksReleased checks every device is back under governor
// control — the observable effect of ResetClocks (the governor resumes
// from the last locked clock, so the MHz value alone proves nothing).
func assertClocksReleased(t *testing.T, res *Result) {
	t.Helper()
	if res == nil || res.System == nil {
		t.Fatal("failed run must return the partial result for diagnosis")
	}
	for ni, n := range res.System.Nodes {
		for di, d := range n.Devices {
			if d.Mode() != gpusim.ModeAuto {
				t.Errorf("node %d device %d still clock-locked at %d MHz after cleanup",
					ni, di, d.SMClockMHz())
			}
		}
	}
}

// TestSetupFailureStillResetsClocks is the error-path regression test:
// when one rank's strategy fails Setup, ranks that already succeeded must
// not be left holding their set clocks, and the sampler must be flushed.
func TestSetupFailureStillResetsClocks(t *testing.T) {
	cfg := Config{
		System:           cluster.CSCSA100(),
		Ranks:            4,
		Sim:              Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            2,
		Sampling:         sampler.Config{GPUHz: 100, NodeHz: 10},
	}
	built := 0
	cfg.NewStrategy = func() freqctl.Strategy {
		built++
		// Ranks 0-2 set 1005 MHz successfully; rank 3 fails Setup.
		return &brittleStrategy{mhz: 1005, failSetup: built == 4, applies: -1}
	}
	res, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "strategy setup") {
		t.Fatalf("err = %v, want strategy setup failure", err)
	}
	assertClocksReleased(t, res)
	if res.Sampler == nil {
		t.Fatal("partial result must carry the sampler")
	}
	for i, st := range res.Sampler.Stats() {
		if st.Ticks == 0 {
			t.Errorf("sampler channel %d (rank %d) never flushed", i, st.Rank)
		}
	}
}

// TestApplyFailureMidRunResetsClocks covers the "first error wins" path
// inside the stepping loop.
func TestApplyFailureMidRunResetsClocks(t *testing.T) {
	cfg := miniConfig()
	cfg.NewStrategy = func() freqctl.Strategy {
		return &brittleStrategy{mhz: 1005, applies: 7}
	}
	res, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "strategy apply") {
		t.Fatalf("err = %v, want strategy apply failure", err)
	}
	assertClocksReleased(t, res)
}

func crashPlan(rank, step int) *faults.Plan {
	return &faults.Plan{Name: "crash", Seed: 11, Rules: []faults.Rule{
		{Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{rank}, Step: step},
	}}
}

func TestRankCrashAbortPolicy(t *testing.T) {
	cfg := Config{
		System:           cluster.CSCSA100(),
		Ranks:            4,
		Sim:              Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            4,
		Faults:           crashPlan(2, 1),
	}
	res, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "rank 2 failed at step 1") {
		t.Fatalf("err = %v, want abort on rank 2 at step 1", err)
	}
	if res.Faults == nil || len(res.Faults.Failures) != 1 {
		t.Fatalf("fault report = %+v", res.Faults)
	}
	if f := res.Faults.Failures[0]; f.Rank != 2 || f.Step != 1 {
		t.Fatalf("failures = %+v", res.Faults.Failures)
	}
	// Abort is an error path: clocks must be released to the governor.
	assertClocksReleased(t, res)
}

func TestRankCrashDropAndRedistribute(t *testing.T) {
	base := Config{
		System:           cluster.CSCSA100(),
		Ranks:            4,
		Sim:              Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            4,
		Faults:           crashPlan(2, 1),
	}
	drop := base
	drop.Degradation = DegradeDropRank
	dres, err := Run(drop)
	if err != nil {
		t.Fatalf("drop-rank run failed: %v", err)
	}
	if len(dres.Faults.Failures) != 1 || dres.Faults.Failures[0].Rank != 2 {
		t.Fatalf("drop failures = %+v", dres.Faults.Failures)
	}
	if dres.Report.Faults == nil || dres.Report.Faults.Degradation != DegradeDropRank {
		t.Fatalf("report fault summary = %+v", dres.Report.Faults)
	}
	// The dead rank stopped calling functions after its crash step.
	deadCalls := dres.Report.Ranks[2].Get(FnMomentum).Calls
	liveCalls := dres.Report.Ranks[0].Get(FnMomentum).Calls
	if deadCalls >= liveCalls {
		t.Fatalf("dead rank ran %d momentum calls, survivors %d", deadCalls, liveCalls)
	}

	redist := base
	redist.Degradation = DegradeRedistribute
	rres, err := Run(redist)
	if err != nil {
		t.Fatalf("redistribute run failed: %v", err)
	}
	// Survivors absorb the dead rank's particles, so the redistributed run
	// takes longer than dropping the work outright.
	if rres.WallTimeS <= dres.WallTimeS {
		t.Fatalf("redistribute wall %.3f s <= drop wall %.3f s; load not respread",
			rres.WallTimeS, dres.WallTimeS)
	}
}

func TestStragglerSlowsRunAndIsCounted(t *testing.T) {
	cfg := Config{
		System:           cluster.MiniHPC(),
		Ranks:            2,
		Sim:              Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            3,
	}
	healthy, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &faults.Plan{Name: "straggle", Seed: 5, Rules: []faults.Rule{
		{Kind: faults.Straggler, Target: faults.TargetRank, Ranks: []int{0}, Factor: 2.5},
	}}
	slow, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.WallTimeS <= healthy.WallTimeS*1.5 {
		t.Fatalf("straggler wall %.3f s vs healthy %.3f s: injection inert",
			slow.WallTimeS, healthy.WallTimeS)
	}
	found := false
	for _, ic := range slow.Faults.Injected {
		if ic.Kind == faults.Straggler && ic.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("straggler injections not counted: %+v", slow.Faults.Injected)
	}
}

// TestSensorFaultsDegradeButDoNotFailContract: under transient sensor
// faults the sampler fails over, intervals are flagged, and the
// attribution contract holds on clean rows — the tentpole's acceptance
// shape at unit scale.
func TestSensorFaultsDegradeButDoNotFailContract(t *testing.T) {
	cfg := Config{
		System:           cluster.MiniHPC(),
		Ranks:            2,
		Sim:              Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            3,
		Tracer:           telemetry.NewTracer(2),
		Sampling:         sampler.Config{GPUHz: 100, NodeHz: 10},
		Faults: &faults.Plan{Name: "noisy-sensors", Seed: 9, Rules: []faults.Rule{
			{Kind: faults.Transient, Target: faults.TargetSensor, Probability: 0.2},
			{Kind: faults.Stuck, Target: faults.TargetSensor, Probability: 0.05, Burst: 4},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sampler.Degraded() {
		t.Fatal("sensor fault plan left the sampler pristine — injection inert")
	}
	if res.Faults == nil || !res.Faults.SamplerDegraded {
		t.Fatalf("fault report = %+v", res.Faults)
	}
	a := res.Attribution
	if a == nil {
		t.Fatal("no attribution")
	}
	if !a.Pass {
		t.Fatalf("degraded intervals must be classified, not fail the gate: agg=%.3f%% max=%.3f%% degradedRows=%d",
			a.AggErrPct, a.MaxResolvableErrPct, a.DegradedRows)
	}
	faultReads := false
	for _, st := range res.Sampler.Stats() {
		if st.FaultReads > 0 || st.StuckEvents > 0 {
			faultReads = true
		}
	}
	if !faultReads {
		t.Fatal("no channel recorded fault reads")
	}
}

// TestManDynUnderClampReportsAchievedClock is the satellite 6 regression
// at full-run scale: with the platform clamping clocks, ManDyn converges
// (no set storm) and the attribution reports the achieved — not the
// requested — clock.
func TestManDynUnderClampReportsAchievedClock(t *testing.T) {
	cfg := Config{
		System:           cluster.MiniHPC(),
		Ranks:            1,
		Sim:              Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            3,
		Tracer:           telemetry.NewTracer(1),
		Sampling:         sampler.Config{GPUHz: 100, NodeHz: 10},
		NewStrategy: func() freqctl.Strategy {
			return &freqctl.ManDyn{Table: map[string]int{
				FnMomentum: 1410, FnIAD: 1410,
			}, Default: 1005}
		},
		Faults: &faults.Plan{Name: "clamped", Seed: 3, Rules: []faults.Rule{
			{Kind: faults.ClampedClock, Target: faults.TargetClock, MHz: 900},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Clamped == 0 {
		t.Fatalf("no clamped sets observed: %+v", res.Faults)
	}
	// The injector caps requests at 900 MHz; the device then snaps to its
	// nearest supported application clock, which may sit slightly above.
	// The point is that the reported clock is the achieved one — far below
	// the 1410/1005 MHz the strategy requested.
	for _, r := range res.Attribution.Kernels {
		if r.ClockMHz <= 0 || r.ClockMHz >= 1000 {
			t.Errorf("kernel %s reports %.0f MHz, want achieved (clamped) clock well under the 1005+ MHz requests",
				r.Name, r.ClockMHz)
		}
	}
}

// chaosConfig is a seeded chaos run on spec: every fault family the
// framework injects — sensor transients, a stuck node sensor, a
// clamped-clock window, a straggler and, with crash, a rank that dies
// halfway under drop-rank — stacked on a ManDyn run with a default clock,
// so the sensor, clock-control and rank layers all see injections, with
// every observer on: tracer, sampler and decision ledger.
func chaosConfig(spec cluster.NodeSpec, seed uint64, ranks, steps int, crash bool) Config {
	max := spec.GPUSpec.MaxSMClockMHz
	cfg := Config{
		System:           spec,
		Ranks:            ranks,
		Sim:              Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            steps,
		Seed:             seed,
		Tracer:           telemetry.NewTracer(ranks),
		Events:           events.NewLedger(0),
		Sampling:         sampler.Config{GPUHz: 100, NodeHz: 10},
		Faults: &faults.Plan{Name: fmt.Sprintf("chaos-%d", seed), Seed: seed, Rules: []faults.Rule{
			{Kind: faults.Transient, Target: faults.TargetSensor, Probability: 0.15},
			{Kind: faults.Stuck, Target: faults.TargetNodeSensor, Probability: 0.05, Burst: 3},
			{Kind: faults.ClampedClock, Target: faults.TargetClock, MHz: max * 2 / 3, StartS: 5},
			{Kind: faults.Straggler, Target: faults.TargetRank, Ranks: []int{0}, Probability: 0.1, Factor: 2},
		}},
		NewStrategy: func() freqctl.Strategy {
			return &freqctl.ManDyn{Table: map[string]int{FnMomentum: max, FnIAD: max}, Default: max * 3 / 4}
		},
	}
	if crash {
		cfg.Faults.Rules = append(cfg.Faults.Rules, faults.Rule{
			Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{ranks - 1}, Step: steps / 2,
		})
		cfg.Degradation = DegradeDropRank
	}
	return cfg
}

// chaosSummary runs cfg and returns, as JSON, what a replay of it must
// reproduce: wall time, energy, the fault report, the attribution rows, the
// rank failures and the ledger's counts per event type. It fails t unless
// the run kept the two-gate attribution contract: rows that rest on
// estimated sensor data are classified, never silently gated.
func chaosSummary(t *testing.T, cfg Config) string {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attribution == nil || cfg.Events == nil {
		t.Fatal("no attribution or ledger summary produced")
	}
	if !res.Attribution.Pass {
		t.Fatalf("two-gate contract violated: agg err %.3f%% with %d degraded rows classified",
			res.Attribution.AggErrPct, res.Attribution.DegradedRows)
	}
	b, err := json.Marshal(map[string]any{
		"wall":     res.WallTimeS,
		"energy_j": res.EnergyJ(),
		"faults":   res.Faults,
		"kernels":  res.Attribution.Kernels,
		"failures": res.Faults.Failures,
		"events":   cfg.Events.Summary().ByType,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// lumiChaosConfig is chaosConfig on LUMI-G's 2 ranks, the two GCDs of one
// MI250X, so the ROCm-SMI sensor and clock paths see the injections, plus
// rejected clock sets. Its clamp ceiling lies between two clock-table
// entries.
func lumiChaosConfig(t *testing.T, seed uint64) Config {
	cfg := chaosConfig(cluster.LUMIG(), seed, 2, 3, false)
	cfg.Faults.Rules = append(cfg.Faults.Rules, faults.Rule{Kind: faults.RejectedSet, Target: faults.TargetClock, Probability: 0.1})
	gpu := cfg.System.GPUSpec
	for _, r := range cfg.Faults.Rules {
		if r.Kind == faults.ClampedClock && gpu.NearestSupportedClock(r.MHz) == r.MHz {
			t.Fatalf("clamp ceiling %d MHz is on %s's clock table", r.MHz, gpu.Name)
		}
	}
	return cfg
}

// TestChaosRunDeterministic: the same config and plan must replay
// bit-identically and keep the attribution contract, on a CSCS-A100 run
// under redistribute and on the seeded sweep: seeds 1-10 on 2 ranks for 3
// steps, on 4 ranks for 4 steps with a rank crash under drop-rank, and on
// LUMI-G's 2 ranks with rejected clock sets.
func TestChaosRunDeterministic(t *testing.T) {
	type row struct {
		name string
		cfg  func() Config
	}
	rows := []row{{"cscs-42", func() Config {
		return Config{
			System:           cluster.CSCSA100(),
			Ranks:            4,
			Sim:              Turbulence,
			ParticlesPerRank: 10e6,
			Steps:            4,
			Tracer:           telemetry.NewTracer(4),
			Events:           events.NewLedger(0),
			Sampling:         sampler.Config{GPUHz: 100, NodeHz: 10},
			Degradation:      DegradeRedistribute,
			Faults: &faults.Plan{Name: "chaos", Seed: 42, Rules: []faults.Rule{
				{Kind: faults.Transient, Target: faults.TargetSensor, Probability: 0.1},
				{Kind: faults.Stuck, Target: faults.TargetNodeSensor, Probability: 0.1, Burst: 3},
				{Kind: faults.ClampedClock, Target: faults.TargetClock, MHz: 1100, StartS: 10},
				{Kind: faults.Straggler, Target: faults.TargetRank, Probability: 0.05, Factor: 2},
				{Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{3}, Step: 2},
			}},
		}
	}}}
	for seed := uint64(1); seed <= 10; seed++ {
		rows = append(rows,
			row{fmt.Sprintf("seed-%d-2x3", seed), func() Config { return chaosConfig(cluster.MiniHPC(), seed, 2, 3, false) }},
			row{fmt.Sprintf("seed-%d-4x4-crash", seed), func() Config { return chaosConfig(cluster.MiniHPC(), seed, 4, 4, true) }},
			row{fmt.Sprintf("lumi-seed-%d-2x3", seed), func() Config { return lumiChaosConfig(t, seed) }})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if a, b := chaosSummary(t, r.cfg()), chaosSummary(t, r.cfg()); a != b {
				t.Fatalf("replay diverged:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

func TestConfigValidatesPlanAndPolicy(t *testing.T) {
	cfg := miniConfig()
	cfg.Degradation = "limp-home"
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "degradation") {
		t.Fatalf("bad policy accepted: %v", err)
	}
	cfg = miniConfig()
	cfg.Faults = &faults.Plan{Rules: []faults.Rule{{Kind: "gremlin", Target: faults.TargetRank}}}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("bad plan accepted: %v", err)
	}
	cfg = miniConfig()
	cfg.Degradation = DegradeDropRank
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "needs an active fault plan") {
		t.Fatalf("policy without a plan accepted: %v", err)
	}
}

// TestStaleSensorReadsKeepAttributionContract: a stuck or latency fault on
// the GPU sensors replays a state with its old timestamp, often for fewer
// polls than latch the stuck detector, and, since the sampler and the
// runner's energy windows share the rank's sensor, sometimes one that the
// window read fresh after the sampler's last poll. The read after a stale
// one spans the unobserved gap, and its ticks must be flagged, not gated:
// each rule alone, seeds 1-20, on miniHPC and LUMI-G, must pass.
// Transient rules stay out: they can leave only short, unresolvable clean
// rows, which fail the aggregate gate for lack of data, not for a bug.
func TestStaleSensorReadsKeepAttributionContract(t *testing.T) {
	rules := []faults.Rule{
		{Kind: faults.Stuck, Target: faults.TargetSensor, Probability: 0.05, Burst: 3},
		{Kind: faults.Latency, Target: faults.TargetSensor, Probability: 0.05},
	}
	for _, spec := range []cluster.NodeSpec{cluster.MiniHPC(), cluster.LUMIG()} {
		max := spec.GPUSpec.MaxSMClockMHz
		for _, rule := range rules {
			for seed := uint64(1); seed <= 20; seed++ {
				res, err := Run(Config{
					System:           spec,
					Ranks:            2,
					Sim:              Turbulence,
					ParticlesPerRank: 10e6,
					Steps:            3,
					Seed:             seed,
					Tracer:           telemetry.NewTracer(2),
					Sampling:         sampler.Config{GPUHz: 100, NodeHz: 10},
					Faults:           &faults.Plan{Seed: seed, Rules: []faults.Rule{rule}},
					NewStrategy: func() freqctl.Strategy {
						return &freqctl.ManDyn{Table: map[string]int{FnMomentum: max, FnIAD: max}, Default: max * 3 / 4}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if a := res.Attribution; !a.Pass {
					t.Errorf("%s, %s rule, seed %d: agg err %.3f%%, worst resolvable %.3f%%, %d degraded rows",
						spec.Name, rule.Kind, seed, a.AggErrPct, a.MaxResolvableErrPct, a.DegradedRows)
				}
			}
		}
	}
}
