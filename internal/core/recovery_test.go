package core

import (
	"encoding/json"
	"fmt"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sphenergy/internal/cluster"
	"sphenergy/internal/events"
	"sphenergy/internal/faults"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/recovery"
)

// recoverableConfig is a small multi-rank run exercising the checkpointed
// state surfaces: setup phase, ManDyn elision, Verlet-skin cadence, jitter.
func recoverableConfig() Config {
	return Config{
		System:               cluster.CSCSA100(),
		Ranks:                4,
		Sim:                  Turbulence,
		ParticlesPerRank:     10e6,
		Steps:                8,
		Seed:                 21,
		SetupS:               2,
		NeighborRebuildEvery: 3,
		NewStrategy: func() freqctl.Strategy {
			return &freqctl.ManDyn{Table: map[string]int{FnMomentum: 1005, FnGravity: 1110}}
		},
	}
}

// modelRecord flattens a Result's model truth — wall time, energies, step
// boundaries, per-rank profiles — into comparable bytes. Observability
// (trace, metrics, ledger, sampler) is excluded: it documents each attempt,
// while the model must be bit-identical across recovery.
func modelRecord(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"wall":     res.WallTimeS,
		"setup_j":  res.SetupEnergyJ,
		"bounds":   res.StepBoundariesS,
		"strategy": res.Report.Strategy,
		"gpu_j":    res.Report.GPUEnergyJ,
		"cpu_j":    res.Report.CPUEnergyJ,
		"mem_j":    res.Report.MemEnergyJ,
		"other_j":  res.Report.OtherEnergyJ,
		"total_j":  res.Report.TotalEnergyJ,
		"ranks":    res.Report.Ranks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSupervisedCrashRecoveryBitIdentical(t *testing.T) {
	ref, err := Run(recoverableConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := modelRecord(t, ref)

	for _, killStep := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("kill-step-%d", killStep), func(t *testing.T) {
			cfg := recoverableConfig()
			cfg.Faults = &faults.Plan{Name: "kill", Seed: 11, Rules: []faults.Rule{
				{Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{2}, Step: killStep},
			}}
			led := events.NewLedger(0)
			rcfg := recovery.Config{
				Dir:           t.TempDir(),
				AutosaveEvery: 1,
				MaxRestarts:   2,
				BackoffS:      0.001,
				Seed:          7,
				Events:        led,
			}
			res, out, err := RunSupervised(cfg, rcfg)
			if err != nil {
				t.Fatal(err)
			}
			if out.Status != recovery.StatusCompleted {
				t.Fatalf("status %q, want completed (outcome %+v)", out.Status, out)
			}
			if out.Restarts < 1 || !out.Resumed {
				t.Fatalf("crash at step %d did not force a restore: %+v", killStep, out)
			}
			if got := modelRecord(t, res); got != want {
				t.Errorf("recovered run diverged from uninterrupted reference\n got: %.120s...\nwant: %.120s...", got, want)
			}
			if res.Recovery == nil || !res.Recovery.Resumed || res.Recovery.Checkpoints == 0 {
				t.Errorf("Result.Recovery incomplete: %+v", res.Recovery)
			}
			sum := led.Summary()
			for _, typ := range []events.Type{events.CheckpointSave, events.CheckpointRestore, events.Restart} {
				if sum.ByType[typ] == 0 {
					t.Errorf("ledger missing %s events: %+v", typ, sum.ByType)
				}
			}
		})
	}
}

func TestSupervisedBudgetStopThenResumeCompletes(t *testing.T) {
	ref, err := Run(recoverableConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := modelRecord(t, ref)

	dir := t.TempDir()
	led := events.NewLedger(0)
	rcfg := recovery.Config{
		Dir:             dir,
		AutosaveEvery:   2,
		Seed:            7,
		WalltimeBudgetS: ref.WallTimeS * 0.5,
		Events:          led,
	}
	res1, out1, err := RunSupervised(recoverableConfig(), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Status != recovery.StatusStopped || out1.StopCause != recovery.StopWalltimeBudget {
		t.Fatalf("budget run ended %q/%q, want stopped/%s", out1.Status, out1.StopCause, recovery.StopWalltimeBudget)
	}
	if res1.Recovery == nil || !res1.Recovery.Stopped || res1.Recovery.LastCheckpoint == "" {
		t.Fatalf("budget stop left no final checkpoint: %+v", res1.Recovery)
	}
	if n := len(res1.StepBoundariesS); n == 0 || n >= recoverableConfig().Steps {
		t.Fatalf("budget stop ran %d steps, want a strict partial run", n)
	}
	if led.Summary().ByType[events.BudgetStop] == 0 {
		t.Error("no budget-stop event in the ledger")
	}

	// Second submission with the budget lifted resumes from the final
	// checkpoint and finishes the remaining steps bit-identically.
	rcfg.WalltimeBudgetS = 0
	res2, out2, err := RunSupervised(recoverableConfig(), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Status != recovery.StatusCompleted || !out2.Resumed {
		t.Fatalf("resume run ended %+v, want completed resume", out2)
	}
	if out2.ResumeStep != len(res1.StepBoundariesS) {
		t.Errorf("resumed at step %d, want %d", out2.ResumeStep, len(res1.StepBoundariesS))
	}
	if got := modelRecord(t, res2); got != want {
		t.Errorf("preempted+resumed run diverged from uninterrupted reference")
	}
}

func TestSupervisedEnergyBudgetStops(t *testing.T) {
	ref, err := Run(recoverableConfig())
	if err != nil {
		t.Fatal(err)
	}
	rcfg := recovery.Config{
		Dir:           t.TempDir(),
		AutosaveEvery: 1,
		Seed:          7,
		// Setup energy alone does not trip it; mid-loop total does.
		EnergyBudgetJ: ref.SetupEnergyJ + ref.Report.TotalEnergyJ*0.5,
	}
	res, out, err := RunSupervised(recoverableConfig(), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != recovery.StatusStopped || out.StopCause != recovery.StopEnergyBudget {
		t.Fatalf("energy-budget run ended %q/%q", out.Status, out.StopCause)
	}
	if n := len(res.StepBoundariesS); n == 0 || n >= recoverableConfig().Steps {
		t.Fatalf("energy stop ran %d steps, want a strict partial run", n)
	}
}

// hangOnce delays the first Apply ever issued (real time only — the
// virtual model is untouched), simulating a wedged step for the watchdog.
type hangOnce struct {
	freqctl.Strategy
	fired *atomic.Bool
	sleep time.Duration
}

func (h hangOnce) Apply(s freqctl.Setter, fn string) error {
	if h.fired.CompareAndSwap(false, true) {
		time.Sleep(h.sleep)
	}
	return h.Strategy.Apply(s, fn)
}

func TestSupervisedWatchdogStallRestarts(t *testing.T) {
	mk := func(fired *atomic.Bool) Config {
		cfg := recoverableConfig()
		cfg.Steps = 5
		cfg.NewStrategy = func() freqctl.Strategy {
			return hangOnce{Strategy: freqctl.Baseline{}, fired: fired, sleep: 900 * time.Millisecond}
		}
		return cfg
	}
	var refFired atomic.Bool
	refFired.Store(true) // reference never sleeps
	ref, err := Run(mk(&refFired))
	if err != nil {
		t.Fatal(err)
	}

	led := events.NewLedger(0)
	rcfg := recovery.Config{
		Dir:           t.TempDir(),
		AutosaveEvery: 1,
		MaxRestarts:   2,
		BackoffS:      0.001,
		Seed:          7,
		Watchdog:      recovery.WatchdogConfig{Enabled: true, MinDeadlineS: 0.1, Mult: 4, PollS: 0.01},
		Events:        led,
	}
	var fired atomic.Bool
	res, out, err := RunSupervised(mk(&fired), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.WatchdogStalls < 1 || out.Restarts < 1 {
		t.Fatalf("watchdog never fired: %+v", out)
	}
	if out.Status != recovery.StatusCompleted {
		t.Fatalf("status %q after stall recovery", out.Status)
	}
	if got, want := modelRecord(t, res), modelRecord(t, ref); got != want {
		t.Error("stall-recovered run diverged from reference")
	}
	if led.Summary().ByType[events.WatchdogStall] == 0 {
		t.Error("no watchdog-stall event in the ledger")
	}
	if len(out.AttemptErrors) == 0 || !strings.Contains(out.AttemptErrors[0], "watchdog") {
		t.Errorf("attempt errors missing watchdog cause: %v", out.AttemptErrors)
	}
}

// panicOnce panics in the Apply of one rank at one step, the first time the
// run gets there — a bug in a strategy, a device model or a hook, anywhere a
// rank's phase can reach.
type panicOnce struct {
	freqctl.Strategy
	fired   *atomic.Bool
	armed   bool // this instance is the chosen rank's
	atApply int  // Apply calls before the panic
	applies int
}

func (p *panicOnce) Apply(s freqctl.Setter, fn string) error {
	p.applies++
	if p.armed && p.applies > p.atApply && p.fired.CompareAndSwap(false, true) {
		panic("strategy bug on a rank")
	}
	return p.Strategy.Apply(s, fn)
}

// TestSupervisedRunSurvivesRankPanic: ranks step on Run's goroutine, so a
// panic inside a rank's phase unwinds through Run to the supervisor, which
// restarts from the last checkpoint — on a rank worker goroutine it would
// have killed the process.
func TestSupervisedRunSurvivesRankPanic(t *testing.T) {
	const panicRank, panicStep = 2, 5
	mk := func(fired *atomic.Bool) Config {
		cfg := recoverableConfig()
		pipeline, err := Pipeline(cfg.Sim)
		if err != nil {
			t.Fatal(err)
		}
		built := 0 // Run builds one strategy per rank, in rank order
		cfg.NewStrategy = func() freqctl.Strategy {
			p := &panicOnce{Strategy: freqctl.Static{MHz: 1230}, fired: fired,
				armed: built%cfg.Ranks == panicRank, atApply: panicStep*len(pipeline) + 3}
			built++
			return p
		}
		return cfg
	}
	var never atomic.Bool
	never.Store(true) // the reference run never panics
	ref, err := Run(mk(&never))
	if err != nil {
		t.Fatal(err)
	}

	var fired atomic.Bool
	res, out, err := RunSupervised(mk(&fired), recovery.Config{
		Dir: t.TempDir(), AutosaveEvery: 1, MaxRestarts: 2, BackoffS: 0.001, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("the panic never fired")
	}
	if out.Status != recovery.StatusCompleted || out.Restarts != 1 || out.Attempts != 2 {
		t.Fatalf("want completed after exactly one restart, got %+v", out)
	}
	if len(out.AttemptErrors) != 1 || !strings.Contains(out.AttemptErrors[0], "strategy bug on a rank") {
		t.Errorf("attempt errors do not name the panic: %v", out.AttemptErrors)
	}
	if res.Recovery == nil || !res.Recovery.Resumed || res.Recovery.ResumeStep != panicStep {
		t.Errorf("resumed at %+v, want step %d (the last boundary before the panic)", res.Recovery, panicStep)
	}
	got, err := json.Marshal(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref.Report)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("report after the panic differs from the uninterrupted run's\n got: %.160s...\nwant: %.160s...", got, want)
	}
	if modelRecord(t, res) != modelRecord(t, ref) {
		t.Error("model record after the panic differs from the uninterrupted run's")
	}
}

// raceDetectorOn reports whether this test binary was built with -race.
func raceDetectorOn() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestAutosaveCostPerSnapshot bounds what durability costs in absolute
// terms: the same small run timed plain and supervised with an autosave
// every 10 steps, best of 3 each, must differ by at most 6 ms per snapshot
// written (≈ 1 ms measured: encoding, fsync, rename, rotation). The
// plain run is under a millisecond of virtual-time bookkeeping, so the
// supervised/plain ratio reads +700–950 % and says nothing; the cost per
// snapshot is the quantity a regression in the encoder or the store's
// write path moves.
func TestAutosaveCostPerSnapshot(t *testing.T) {
	if raceDetectorOn() {
		t.Skip("race instrumentation reads 3-6 ms per snapshot; the bound is for plain builds (go test, make soak-smoke)")
	}
	const perSnapshot = 6 * time.Millisecond
	cfg := Config{
		System:           cluster.MiniHPC(),
		Ranks:            2,
		Sim:              Turbulence,
		ParticlesPerRank: 1e6,
		Steps:            80,
		Seed:             5,
	}
	bestOf3 := func(run func() error) time.Duration {
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			if err := run(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	plain := bestOf3(func() error {
		_, err := Run(cfg)
		return err
	})
	snapshots := 0
	supervised := bestOf3(func() error {
		// A fresh store per rep: resuming a finished run is an instant
		// no-op and would measure nothing.
		res, _, err := RunSupervised(cfg, recovery.Config{Dir: t.TempDir(), AutosaveEvery: 10})
		if err == nil {
			snapshots = res.Recovery.Checkpoints
		}
		return err
	})
	if snapshots < cfg.Steps/10 {
		t.Fatalf("supervised run wrote %d snapshots, want at least %d", snapshots, cfg.Steps/10)
	}
	cost := (supervised - plain) / time.Duration(snapshots)
	t.Logf("plain %v, supervised %v, %d snapshots: %v per snapshot", plain, supervised, snapshots, cost)
	if cost > perSnapshot {
		t.Errorf("autosave costs %v per snapshot (%v supervised vs %v plain over %d snapshots), want ≤ %v",
			cost, supervised, plain, snapshots, perSnapshot)
	}
}

// TestManualStopRequestAndResume drives the unsupervised path a signal
// handler uses: RequestStop forces a final checkpoint and a graceful
// partial result; a later supervised submission resumes and completes.
func TestManualStopRequestAndResume(t *testing.T) {
	ref, err := Run(recoverableConfig())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store, err := recovery.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctl := recovery.NewController(recovery.Config{Dir: dir}, store)
	ctl.RequestStop("signal:interrupt")
	cfg := recoverableConfig()
	cfg.Recovery = &RunRecovery{Controller: ctl}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recovery.Stopped || res.Recovery.StopCause != "signal:interrupt" {
		t.Fatalf("stop request not honored: %+v", res.Recovery)
	}
	if len(res.StepBoundariesS) != 1 {
		t.Fatalf("stop at first boundary ran %d steps", len(res.StepBoundariesS))
	}

	res2, out, err := RunSupervised(recoverableConfig(), recovery.Config{Dir: dir, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Resumed || out.ResumeStep != 1 {
		t.Fatalf("resume after signal stop: %+v", out)
	}
	if got, want := modelRecord(t, res2), modelRecord(t, ref); got != want {
		t.Error("signal-stopped+resumed run diverged from reference")
	}
}

func TestSupervisedRestartsExhausted(t *testing.T) {
	cfg := recoverableConfig()
	// Crash re-arms every attempt: a probability-1 crash window that is
	// never disarmed (not step-pinned), so every attempt dies.
	cfg.Faults = &faults.Plan{Name: "persistent", Seed: 3, Rules: []faults.Rule{
		{Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{1}, Probability: 1},
	}}
	_, out, err := RunSupervised(cfg, recovery.Config{
		Dir: t.TempDir(), AutosaveEvery: 1, MaxRestarts: 2, BackoffS: 0.001, Seed: 7,
	})
	if err == nil || !strings.Contains(err.Error(), "restarts exhausted") {
		t.Fatalf("persistent crash did not exhaust restarts: %v", err)
	}
	if out.Status != recovery.StatusRestartsExhausted || out.Attempts != 3 {
		t.Fatalf("outcome %+v", out)
	}
}

// TestCheckpointFingerprintMismatch proves a snapshot cannot be restored
// under a different configuration.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := RunSupervised(recoverableConfig(), recovery.Config{Dir: dir, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	cfg := recoverableConfig()
	cfg.Seed = 99 // different run, same store
	_, _, err := RunSupervised(cfg, recovery.Config{Dir: dir, MaxRestarts: 0, Seed: 7})
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("fingerprint mismatch accepted: %v", err)
	}
}
