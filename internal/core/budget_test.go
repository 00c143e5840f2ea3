package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/events"
	"sphenergy/internal/faults"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/telemetry"
)

// budgetConfig is a small multi-rank run with a setup phase, ManDyn
// elision and jitter: the budgets' wall clock starts after the setup, and
// the energy budget counts it.
func budgetConfig() Config {
	return Config{
		System:           cluster.CSCSA100(),
		Ranks:            4,
		Sim:              Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            8,
		Seed:             21,
		SetupS:           2,
		NewStrategy: func() freqctl.Strategy {
			return &freqctl.ManDyn{Table: map[string]int{FnMomentum: 1005, FnGravity: 1110}}
		},
	}
}

// seededBudgetConfig is the same kind of run on miniHPC, whose ManDyn
// table leaves most functions at a default clock, with the seed choosing
// the jitter.
func seededBudgetConfig(seed uint64) Config {
	spec := cluster.MiniHPC()
	max := spec.GPUSpec.MaxSMClockMHz
	return Config{
		System:           spec,
		Ranks:            4,
		Sim:              Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            8,
		Seed:             seed,
		SetupS:           1,
		NewStrategy: func() freqctl.Strategy {
			return &freqctl.ManDyn{Table: map[string]int{FnMomentum: max, FnIAD: max}, Default: max * 3 / 4}
		},
	}
}

// requireBudgetStop runs cfg uninterrupted, then again with its tracer and
// ledger on and a budget that set derives from the uninterrupted result.
// The budget must end the second run with want at a step boundary strictly
// inside it. The steps it ran are the uninterrupted run's first steps, bit
// for bit. The ledger ends with the last step's row, one budget-stop row
// naming want and the run-end. It returns the stopped result.
func requireBudgetStop(t *testing.T, cfg Config, want error, set func(*Config, *Result)) *Result {
	t.Helper()
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set(&cfg, ref)
	cfg.Tracer, cfg.Events = telemetry.NewTracer(cfg.Ranks), events.NewLedger(0)
	res, err := Run(cfg)
	if err != want {
		t.Fatalf("err = %v, want %v", err, want)
	}
	n := len(res.StepBoundariesS)
	if n == 0 || n >= cfg.Steps {
		t.Fatalf("the budget stopped the run after %d of %d steps, want a strict partial run", n, cfg.Steps)
	}
	if !slices.Equal(res.StepBoundariesS, ref.StepBoundariesS[:n]) {
		t.Errorf("the stopped run's step boundaries %v are not the uninterrupted run's first %d, %v",
			res.StepBoundariesS, n, ref.StepBoundariesS[:n])
	}
	if res.Report == nil || res.Report.WallTimeS != res.WallTimeS || len(res.Report.Ranks) != cfg.Ranks {
		t.Fatalf("the stopped run's report is incomplete: %+v", res.Report)
	}
	evs := ledgerEvents(t, cfg.Events)
	if len(evs) < 3 {
		t.Fatalf("the ledger holds %d rows", len(evs))
	}
	last, stop, end := evs[len(evs)-3], evs[len(evs)-2], evs[len(evs)-1]
	if last.Type != events.StepDone || last.Step != n-1 {
		t.Errorf("the row before the budget stop is %+v, want step %d's", last, n-1)
	}
	if stop.Type != events.BudgetStop || stop.Step != n-1 || stop.Detail != want.Error() || stop.TimeS != res.WallTimeS {
		t.Errorf("budget-stop row %+v, want step %d, detail %s, at %v s", stop, n-1, want, res.WallTimeS)
	}
	if end.Type != events.RunEnd {
		t.Errorf("the ledger ends with %+v, want run-end", end)
	}
	if c := cfg.Events.Summary().ByType[events.BudgetStop]; c != 1 {
		t.Errorf("%d budget-stop rows, want 1", c)
	}
	return res
}

// TestSupervisedBudgetStopThenResumeCompletes gives budgetConfig's run,
// then each seeded run, a wall-time budget of half its uninterrupted wall
// time. The run must stop at the first step boundary at or past the budget.
// The name is kept from when a supervisor resumed the stopped run from a
// checkpoint. A resume is now a re-submission from step 0: with the budget
// lifted and fresh observers it must run every step, as the uninterrupted
// run, with no budget-stop row.
func TestSupervisedBudgetStopThenResumeCompletes(t *testing.T) {
	check := func(t *testing.T, cfg Config) {
		var budget float64
		var ref *Result
		res := requireBudgetStop(t, cfg, ErrWalltimeBudget, func(c *Config, r *Result) {
			budget, ref = r.WallTimeS*0.5, r
			c.WalltimeBudgetS = budget
		})
		b := res.StepBoundariesS
		t0 := b[len(b)-1] - res.WallTimeS
		if res.WallTimeS < budget || (len(b) > 1 && b[len(b)-2]-t0 >= budget) {
			t.Errorf("stopped at %v s of wall clock after %d steps, not at the first boundary past the %v s budget",
				res.WallTimeS, len(b), budget)
		}

		cfg.Tracer, cfg.Events = telemetry.NewTracer(cfg.Ranks), events.NewLedger(0)
		again, err := Run(cfg)
		if err != nil {
			t.Fatalf("the re-submission without a budget: %v", err)
		}
		if !slices.Equal(again.StepBoundariesS, ref.StepBoundariesS) || again.WallTimeS != ref.WallTimeS ||
			again.Report.TotalEnergyJ != ref.Report.TotalEnergyJ {
			t.Errorf("the re-submission ran %d steps in %v s for %v J, the uninterrupted run %d in %v s for %v J",
				len(again.StepBoundariesS), again.WallTimeS, again.Report.TotalEnergyJ,
				len(ref.StepBoundariesS), ref.WallTimeS, ref.Report.TotalEnergyJ)
		}
		if c := cfg.Events.Summary().ByType[events.BudgetStop]; c != 0 {
			t.Errorf("the re-submission wrote %d budget-stop rows, want none", c)
		}
	}
	check(t, budgetConfig())
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			check(t, seededBudgetConfig(seed))
		})
	}
}

// TestSupervisedEnergyBudgetStops gives budgetConfig's run an energy budget
// that its setup energy alone does not reach and half its loop energy on
// top does. The name is kept from when a supervisor checked the budget.
func TestSupervisedEnergyBudgetStops(t *testing.T) {
	requireBudgetStop(t, budgetConfig(), ErrEnergyBudget, func(c *Config, ref *Result) {
		c.EnergyBudgetJ = ref.SetupEnergyJ + ref.Report.TotalEnergyJ*0.5
	})
}

// TestCrashOutranksBudget: a rank crash under abort and a budget at the
// same step boundary end the run as the crash, with no budget-stop row.
func TestCrashOutranksBudget(t *testing.T) {
	const crashStep = 2
	ref, err := Run(budgetConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := budgetConfig()
	cfg.Faults = &faults.Plan{Name: "kill", Seed: 11, Rules: []faults.Rule{
		{Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{2}, Step: crashStep}}}
	// Past the wall clock of the step before the crash, so the crash's
	// step is the first to reach it.
	cfg.WalltimeBudgetS = math.Nextafter(ref.StepBoundariesS[crashStep-1]-cfg.SetupS, math.Inf(1))
	cfg.Events = events.NewLedger(0)
	res, err := Run(cfg)
	if err == nil || err == ErrWalltimeBudget || !strings.Contains(err.Error(), "rank") {
		t.Fatalf("err = %v, want the rank crash", err)
	}
	if res == nil || res.Report != nil {
		t.Fatalf("a crashed run returned %+v, want the partial result without a report", res)
	}
	if c := cfg.Events.Summary().ByType[events.BudgetStop]; c != 0 {
		t.Errorf("%d budget-stop rows, want none", c)
	}
}

// TestSupervisedInvalidRecoveryConfigNeverAttempts: a negative or NaN
// budget, which the step boundary would read as "unlimited", is refused
// naming the field before the run starts or observes anything. The name is
// kept from when the budgets were fields of the supervisor's config.
func TestSupervisedInvalidRecoveryConfigNeverAttempts(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*Config)
	}{
		{"WalltimeBudgetS", func(c *Config) { c.WalltimeBudgetS = -5 }},
		{"WalltimeBudgetS", func(c *Config) { c.WalltimeBudgetS = math.NaN() }},
		{"EnergyBudgetJ", func(c *Config) { c.EnergyBudgetJ = -1 }},
		{"EnergyBudgetJ", func(c *Config) { c.EnergyBudgetJ = math.NaN() }},
	} {
		cfg := budgetConfig()
		c.set(&cfg)
		cfg.Tracer, cfg.Events = telemetry.NewTracer(cfg.Ranks), events.NewLedger(0)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: Validate() = %v, want a refusal naming the field", c.field, err)
		}
		res, err := Run(cfg)
		if err == nil || res != nil || cfg.Tracer.Len() != 0 || cfg.Events.Emitted() != 0 {
			t.Errorf("%s: Run ran: err %v, result %v, %d trace events, %d ledger rows",
				c.field, err, res != nil, cfg.Tracer.Len(), cfg.Events.Emitted())
		}
	}
}
