package core

import (
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
	for _, ev := range ledgerEvents(t, cfg.Events) {
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
// window the retry and breaker policy sees. The pins were the set counts,
// 9 608 and 26, which commit f70485f's InstrumentedSetter wrapper exported
// as freq_switches_total; nothing counts sets now, and the rows the ledger
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

// testClock builds rank 0's clock over a fresh device of spec under plan,
// with the tracer and the ledger on.
func testClock(spec gpusim.Spec, plan *faults.Plan) (*rankClock, *telemetry.Tracer, *events.Ledger) {
	cfg := Config{Ranks: 1, Tracer: telemetry.NewTracer(1), Events: events.NewLedger(0)}
	c := &rankClock{
		DeviceSetter: freqctl.DeviceSetter{Dev: gpusim.NewDevice(spec, 0)},
		rt:           newRunTelemetry(cfg),
		re:           newRunEvents(cfg, func() int { return -1 }, 1),
		inj:          plan.Injector(faults.TargetClock, 0),
	}
	return c, cfg.Tracer, cfg.Events
}

// rejectPlan returns a plan whose one rule rejects rank 0's clock sets at
// probability 0.5, seeded so that its stream's first draws reject where
// pattern has an 'x' and pass where it has a '.'.
func rejectPlan(t *testing.T, pattern string) *faults.Plan {
	t.Helper()
	for seed := uint64(1); seed < 1<<20; seed++ {
		p := &faults.Plan{Seed: seed, Rules: []faults.Rule{
			{Kind: faults.RejectedSet, Target: faults.TargetClock, Probability: 0.5},
		}}
		in := p.Injector(faults.TargetClock, 0)
		match := true
		for _, want := range pattern {
			if _, err := in.ClockSet(0, 1); (err != nil) != (want == 'x') {
				match = false
				break
			}
		}
		if match {
			return p
		}
	}
	t.Fatalf("no seed rejects as %q", pattern)
	return nil
}

// clockRows renders the ledger's rows as "type mhz err" lines.
func clockRows(t *testing.T, led *events.Ledger) []string {
	t.Helper()
	var rows []string
	for _, ev := range ledgerEvents(t, led) {
		rows = append(rows, fmt.Sprintf("%s %s %d %s", ev.Type, ev.Subject, ev.RequestedMHz, ev.Err))
	}
	return rows
}

// freqChanges returns the clocks of the trace's freq-change instants.
func freqChanges(tr *telemetry.Tracer) []float64 {
	var mhz []float64
	for _, sp := range tr.Spans() {
		if sp.Instant && sp.Name == "freq-change" {
			v, _ := sp.Arg("mhz")
			mhz = append(mhz, v)
		}
	}
	return mhz
}

func TestRankClockRetriesThroughTransients(t *testing.T) {
	c, tr, led := testClock(gpusim.A100SXM480GB(), rejectPlan(t, "xx."))
	applied, err := c.SetSMClock(1005)
	if err != nil || applied != 1005 || c.Dev.SMClockMHz() != 1005 {
		t.Fatalf("SetSMClock = (%d, %v), device at %d, want 1005", applied, err, c.Dev.SMClockMHz())
	}
	if c.retries != 2 || c.absorbed != 0 || !c.reached {
		t.Fatalf("retries %d, absorbed %d, reached %v", c.retries, c.absorbed, c.reached)
	}
	retry := "freq-retry set 1005 faults: injected rejected clock set (clock-set 1005 MHz)"
	if got, want := fmt.Sprint(clockRows(t, led)), fmt.Sprint([]string{retry, retry}); got != want {
		t.Errorf("ledger rows %s, want %s", got, want)
	}
	if got := freqChanges(tr); fmt.Sprint(got) != "[1005]" {
		t.Errorf("freq-change instants %v, want the one set that reached the device", got)
	}
}

func TestRankClockAbsorbsExhaustedFailure(t *testing.T) {
	c, _, led := testClock(gpusim.A100SXM480GB(), rejectPlan(t, ".xxx"))
	if _, err := c.SetSMClock(1200); err != nil {
		t.Fatal(err)
	}
	applied, err := c.SetSMClock(900)
	if err != nil {
		t.Fatalf("exhausted failure must be absorbed, got %v", err)
	}
	if applied != 1200 || c.Dev.SMClockMHz() != 1200 || c.reached {
		t.Fatalf("absorbed set returned %d (reached %v), device at %d, want the device's 1200, not reached",
			applied, c.reached, c.Dev.SMClockMHz())
	}
	if c.absorbed != 1 || c.consec != 1 || c.broken {
		t.Fatalf("absorbed %d, consecutive %d, broken %v", c.absorbed, c.consec, c.broken)
	}
	rows := clockRows(t, led)
	if len(rows) != 3 || !strings.HasPrefix(rows[2], "freq-absorb set 900 faults: injected rejected") {
		t.Errorf("ledger rows %q, want two retries and an absorb", rows)
	}
}

// TestRankClockBreakerLatchesSafeClock: the first 9 attempts fail (3 sets
// of 3), so every set is absorbed; the third in a row trips the breaker,
// whose latch set (attempt 10) pins the device's maximum clock. Later sets
// short-circuit; a reset still reaches the device and clears the count.
func TestRankClockBreakerLatchesSafeClock(t *testing.T) {
	c, tr, led := testClock(gpusim.A100SXM480GB(), rejectPlan(t, strings.Repeat("x", clockAttempts*breakerThreshold)+"."))
	safe := c.MaxSMClock()
	for i := 0; i < breakerThreshold; i++ {
		if _, err := c.SetSMClock(900); err != nil {
			t.Fatal(err)
		}
	}
	if !c.broken || c.Dev.SMClockMHz() != safe {
		t.Fatalf("broken %v, device at %d, want latched at %d", c.broken, c.Dev.SMClockMHz(), safe)
	}
	applied, err := c.SetSMClock(600)
	if err != nil || applied != safe || c.Dev.SMClockMHz() != safe {
		t.Fatalf("post-latch set = (%d, %v), device at %d, want (%d, nil)", applied, err, c.Dev.SMClockMHz(), safe)
	}
	if c.breakerTrips != 1 || c.shortCircuits != 1 {
		t.Fatalf("trips %d, short circuits %d", c.breakerTrips, c.shortCircuits)
	}
	rows := clockRows(t, led)
	trip := fmt.Sprintf("freq-breaker-trip set %d faults: injected rejected clock set (clock-set 900 MHz)", safe)
	if n := len(rows); n < 2 || rows[n-2] != trip || rows[n-1] != "freq-short-circuit set 600 " {
		t.Errorf("ledger ends %q, want the trip and a short circuit", rows)
	}
	if got := freqChanges(tr); fmt.Sprint(got) != fmt.Sprintf("[%d]", safe) {
		t.Fatalf("freq-change instants %v, want the latch set only", got)
	}
	if err := c.ResetClocks(); err != nil {
		t.Fatal(err)
	}
	if c.Dev.Mode() != gpusim.ModeAuto || c.consec != 0 || len(freqChanges(tr)) != 2 {
		t.Errorf("reset under the breaker: mode %v, consecutive %d, %d freq-changes",
			c.Dev.Mode(), c.consec, len(freqChanges(tr)))
	}
}

func TestRankClockRejectsInvalidMHz(t *testing.T) {
	// The plan's one rule targets rank 1: rank 0's stream has nothing to
	// draw, and its requests are still validated.
	c, tr, _ := testClock(gpusim.A100SXM480GB(), &faults.Plan{Rules: []faults.Rule{
		{Kind: faults.RejectedSet, Target: faults.TargetClock, Ranks: []int{1}},
	}})
	for _, mhz := range []int{0, -5} {
		if _, err := c.SetSMClock(mhz); err == nil {
			t.Errorf("SetSMClock(%d) accepted", mhz)
		}
	}
	if c.Dev.Mode() != gpusim.ModeAuto || len(freqChanges(tr)) != 0 {
		t.Errorf("a refused request reached the device")
	}
}

// TestRankClockVerifiesAchievedClock: a clamp caps the request and the
// device snaps the ceiling to its nearest supported clock. The A100's
// 801 MHz ceiling snaps to 795; LUMI-G's 1333, between two 50 MHz steps,
// to 1350, the entry ROCm-SMI's frequency-index search picks too, while a
// request under the ceiling passes unclamped.
func TestRankClockVerifiesAchievedClock(t *testing.T) {
	for _, tc := range []struct {
		spec               gpusim.Spec
		ceiling, req, want int
		clamped            uint64
	}{
		{gpusim.A100SXM480GB(), 801, 1005, 795, 1},
		{cluster.LUMIG().GPUSpec, 1333, 1400, 1350, 1},
		{cluster.LUMIG().GPUSpec, 1333, 1333, 1350, 1},
		{cluster.LUMIG().GPUSpec, 1333, 1000, 1000, 0},
	} {
		c, _, led := testClock(tc.spec, &faults.Plan{Rules: []faults.Rule{
			{Kind: faults.ClampedClock, Target: faults.TargetClock, MHz: tc.ceiling},
		}})
		applied, err := c.SetSMClock(tc.req)
		if err != nil || applied != tc.want || c.Dev.SMClockMHz() != tc.want || !c.reached {
			t.Errorf("%s: SetSMClock(%d) under %d MHz = (%d, %v), device at %d, want %d",
				tc.spec.Name, tc.req, tc.ceiling, applied, err, c.Dev.SMClockMHz(), tc.want)
		}
		if c.clamped != tc.clamped || uint64(len(clockRows(t, led))) != tc.clamped {
			t.Errorf("%s: request %d: %d clamped, rows %q, want %d", tc.spec.Name, tc.req, c.clamped, clockRows(t, led), tc.clamped)
		}
	}
}

// TestManDynThroughRankClockUnderFaultPlan: ManDyn over an A100 whose plan
// clamps every set at 900 MHz converges: its table clock, clamped on every
// set, is asked for once, not before every call, and the device runs at the
// achieved clock.
func TestManDynThroughRankClockUnderFaultPlan(t *testing.T) {
	c, _, led := testClock(gpusim.A100SXM480GB(), &faults.Plan{Seed: 3, Rules: []faults.Rule{
		{Kind: faults.ClampedClock, Target: faults.TargetClock, MHz: 900},
	}})
	m := &freqctl.ManDyn{Table: map[string]int{"momentum": 1005}}
	if err := m.Setup(c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.apply(m, "momentum"); err != nil {
			t.Fatal(err)
		}
	}
	want := c.Dev.Spec().NearestSupportedClock(900)
	if got := c.Dev.SMClockMHz(); got != want {
		t.Fatalf("device at %d MHz, want the clamped %d", got, want)
	}
	if draws := c.inj.Counts()[faults.ClampedClock]; draws != 2 || c.clamped != 2 {
		t.Fatalf("%d sets drew the clamp, %d clamped, want Setup's and one Apply's", draws, c.clamped)
	}
	decision := fmt.Sprintf("%s momentum 1005/%d", events.FreqDecision, want)
	var decisions []string
	for _, ev := range ledgerEvents(t, led) {
		if ev.Type == events.FreqDecision {
			decisions = append(decisions, fmt.Sprintf("%s %s %d/%d", ev.Type, ev.Subject, ev.RequestedMHz, ev.AppliedMHz))
		}
	}
	if fmt.Sprint(decisions) != fmt.Sprint([]string{decision}) {
		t.Errorf("decision rows %q, want %q", decisions, decision)
	}
}

// breakerPlan is `make bundle-smoke`'s BREAKER_PLAN: every clock set of
// rank 1 rejected, beside sensor, node-sensor, clamped-clock, rejected-set
// and straggler rules on both ranks.
const breakerPlan = `{"name":"smoke","seed":7,"rules":[
	{"kind":"rejected-set","target":"clock","ranks":[1]},
	{"kind":"transient","target":"sensor","probability":0.1},
	{"kind":"stuck","target":"node-sensor","probability":0.1,"burst":3},
	{"kind":"clamped-clock","target":"clock","mhz":1333,"start_s":1},
	{"kind":"rejected-set","target":"clock","probability":0.05},
	{"kind":"straggler","target":"rank","ranks":[0],"probability":0.1,"factor":2}]}`

// TestNotAppliedDecisionsSayWhatTheDeviceRan drives BREAKER_PLAN through a
// ManDyn run on LUMI-G: no set of rank 1 reaches its device, so every
// decision row of rank 1 is marked not applied and carries the clock the
// device ran under its governor, never 0 and never a clock the rank set;
// rank 0's sets reach the device and no row of it is so marked.
func TestNotAppliedDecisionsSayWhatTheDeviceRan(t *testing.T) {
	plan, err := faults.LoadPlan(breakerPlan)
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.LUMIG()
	max := spec.GPUSpec.MaxSMClockMHz
	cfg := Config{System: spec, Ranks: 2, Sim: Turbulence, ParticlesPerRank: 10e6, Steps: 3,
		Tracer: telemetry.NewTracer(2), Events: events.NewLedger(0),
		Sampling: sampler.Config{GPUHz: 100, NodeHz: 10}, Faults: plan,
		NewStrategy: func() freqctl.Strategy {
			return &freqctl.ManDyn{Table: map[string]int{FnMomentum: max, FnIAD: max}, Default: max * 3 / 4}
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.BrokenRanks != 1 {
		t.Fatalf("broken ranks %d, want 1", res.Faults.BrokenRanks)
	}
	rows := [2]int{}
	for _, ev := range ledgerEvents(t, cfg.Events) {
		if ev.Type != events.FreqDecision {
			continue
		}
		rows[ev.Rank]++
		notApplied := ev.Detail == events.NotApplied
		switch {
		case ev.Rank == 1 && (!notApplied || ev.AppliedMHz <= 0):
			t.Errorf("rank 1 decision %+v claims a clock the device did not run", ev)
		case ev.Rank == 0 && notApplied:
			t.Errorf("rank 0 decision %+v marked not applied", ev)
		}
	}
	if rows[0] == 0 || rows[1] == 0 {
		t.Errorf("decision rows by rank %v, want some on both", rows)
	}
}
