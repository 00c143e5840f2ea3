package core

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sphenergy/internal/cluster"
	"sphenergy/internal/events"
	"sphenergy/internal/faults"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/mpisim"
	"sphenergy/internal/recovery"
	"sphenergy/internal/rng"
)

// recoverableConfig is a small multi-rank run exercising the checkpointed
// state surfaces: setup phase, ManDyn elision, jitter.
func recoverableConfig() Config {
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

// soakConfig is the seeded recovery sweep's run: model only, on miniHPC,
// with a setup phase and ManDyn elision state with a default clock, so
// every checkpointed state surface is exercised.
func soakConfig(seed uint64) Config {
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

// soakSeeds is how many seeds the recovery sweep runs soakConfig with.
const soakSeeds = 5

// requireCrashRecovers crashes rank at step of cfg's run with a pinned
// rank-crash plan and requires the supervisor to restart it from its
// on-disk checkpoint into want, the uninterrupted run's modelRecord, with
// the save, the restore and the restart on the ledger, and no stall from
// the watchdog every supervised attempt arms.
func requireCrashRecovers(t *testing.T, cfg Config, want string, step, rank int, planSeed, seed uint64) {
	t.Helper()
	cfg.Faults = &faults.Plan{Name: "kill", Seed: planSeed, Rules: []faults.Rule{
		{Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{rank}, Step: step},
	}}
	led := events.NewLedger(0)
	res, out, err := RunSupervised(cfg, recovery.Config{
		Dir: t.TempDir(), AutosaveEvery: 1, MaxRestarts: 2, BackoffS: 0.001, Seed: seed, Events: led,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != recovery.StatusCompleted {
		t.Fatalf("status %q, want completed (outcome %+v)", out.Status, out)
	}
	if out.Restarts < 1 || !out.Resumed {
		t.Fatalf("crash at step %d did not force a restore: %+v", step, out)
	}
	if out.WatchdogStalls != 0 {
		t.Fatalf("the default watchdog deadline fired on a healthy attempt: %+v", out)
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
}

// TestSupervisedCrashRecoveryBitIdentical kills recoverableConfig's run at
// fixed steps, then each soakConfig seed's at ten points whose step and
// rank the seed draws.
func TestSupervisedCrashRecoveryBitIdentical(t *testing.T) {
	ref, err := Run(recoverableConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := modelRecord(t, ref)
	for _, killStep := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("kill-step-%d", killStep), func(t *testing.T) {
			requireCrashRecovers(t, recoverableConfig(), want, killStep, 2, 11, 7)
		})
	}

	for seed := uint64(1); seed <= soakSeeds; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			cfg := soakConfig(seed)
			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := modelRecord(t, ref)
			r := rng.New(seed ^ 0x50AC50AC)
			for kill := 0; kill < 10; kill++ {
				// Step 0 has no autosave before it, so a crash there would
				// exhaust the restarts.
				step, rank := 1+int(r.Uint64()%uint64(cfg.Steps-1)), int(r.Uint64()%uint64(cfg.Ranks))
				t.Run(fmt.Sprintf("kill-%d-step-%d-rank-%d", kill, step, rank), func(t *testing.T) {
					requireCrashRecovers(t, cfg, want, step, rank, seed, seed)
				})
			}
		})
	}
}

// requireBudgetStopResumes submits cfg with a wall-time budget of half its
// uninterrupted run, which must stop it at a step boundary with a final
// checkpoint, then again with the budget lifted, which must resume there
// and finish the run bit-identically.
func requireBudgetStopResumes(t *testing.T, cfg Config, rcfg recovery.Config) {
	t.Helper()
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	led := events.NewLedger(0)
	rcfg.Dir, rcfg.Events, rcfg.WalltimeBudgetS = t.TempDir(), led, ref.WallTimeS*0.5
	res1, out1, err := RunSupervised(cfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Status != recovery.StatusStopped || out1.StopCause != recovery.StopWalltimeBudget {
		t.Fatalf("budget run ended %q/%q, want stopped/%s", out1.Status, out1.StopCause, recovery.StopWalltimeBudget)
	}
	if res1.Recovery == nil || !res1.Recovery.Stopped || res1.Recovery.LastCheckpoint == "" {
		t.Fatalf("budget stop left no final checkpoint: %+v", res1.Recovery)
	}
	if n := len(res1.StepBoundariesS); n == 0 || n >= cfg.Steps {
		t.Fatalf("budget stop ran %d steps, want a strict partial run", n)
	}
	if led.Summary().ByType[events.BudgetStop] == 0 {
		t.Error("no budget-stop event in the ledger")
	}

	rcfg.WalltimeBudgetS = 0
	res2, out2, err := RunSupervised(cfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Status != recovery.StatusCompleted || !out2.Resumed {
		t.Fatalf("resume run ended %+v, want completed resume", out2)
	}
	if out1.WatchdogStalls+out2.WatchdogStalls != 0 {
		t.Fatalf("the default watchdog deadline fired on a healthy run: %+v, %+v", out1, out2)
	}
	if out2.ResumeStep != len(res1.StepBoundariesS) {
		t.Errorf("resumed at step %d, want %d", out2.ResumeStep, len(res1.StepBoundariesS))
	}
	if got, want := modelRecord(t, res2), modelRecord(t, ref); got != want {
		t.Errorf("preempted+resumed run diverged from uninterrupted reference")
	}
}

func TestSupervisedBudgetStopThenResumeCompletes(t *testing.T) {
	requireBudgetStopResumes(t, recoverableConfig(), recovery.Config{AutosaveEvery: 2, Seed: 7})
	for seed := uint64(1); seed <= soakSeeds; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			requireBudgetStopResumes(t, soakConfig(seed),
				recovery.Config{AutosaveEvery: 1, MaxRestarts: 2, BackoffS: 0.001, Seed: seed})
		})
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
		Watchdog:      recovery.WatchdogConfig{MinDeadlineS: 0.1, Mult: 4, PollS: 0.01},
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
		t.Skip("race instrumentation reads 3-6 ms per snapshot; the bound is for plain builds (go test, make sweeps)")
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

// TestSupervisedInvalidConfigNeverAttempts: a configuration Run refuses is
// returned as Validate's error before the supervisor starts, not retried
// as a crash until restarts run out.
func TestSupervisedInvalidConfigNeverAttempts(t *testing.T) {
	cfg := recoverableConfig()
	cfg.ParticlesPerRank = 400e6 // 112 GB, beyond an 80 GB A100
	attempts := 0
	_, out, err := RunSupervised(cfg, recovery.Config{
		Dir: t.TempDir(), MaxRestarts: 2, BackoffS: 0.001, Seed: 7,
		OnAttempt: func(*recovery.Controller) { attempts++ },
	})
	if want := cfg.Validate(); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("err = %v, want Validate's %v", err, want)
	}
	if attempts != 0 || out != nil {
		t.Fatalf("invalid config reached the supervisor: %d attempt(s), outcome %+v", attempts, out)
	}
}

// TestSupervisedInvalidRecoveryConfigNeverAttempts: a negative count, or a
// negative or NaN delay or budget, which the supervisor would otherwise
// read as a default, "no restarts" or "unlimited", is refused naming the
// field before any attempt starts or the store directory is created.
func TestSupervisedInvalidRecoveryConfigNeverAttempts(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*recovery.Config)
	}{
		{"AutosaveEvery", func(r *recovery.Config) { r.AutosaveEvery = -1 }},
		{"Keep", func(r *recovery.Config) { r.Keep = -1 }},
		{"MaxRestarts", func(r *recovery.Config) { r.MaxRestarts = -1 }},
		{"BackoffS", func(r *recovery.Config) { r.BackoffS = math.NaN() }},
		{"WalltimeBudgetS", func(r *recovery.Config) { r.WalltimeBudgetS = -5 }},
		{"EnergyBudgetJ", func(r *recovery.Config) { r.EnergyBudgetJ = math.NaN() }},
		{"Watchdog.PollS", func(r *recovery.Config) { r.Watchdog.PollS = -0.01 }},
	} {
		dir := filepath.Join(t.TempDir(), "ckpt")
		attempts := 0
		rcfg := recovery.Config{Dir: dir, Seed: 7, OnAttempt: func(*recovery.Controller) { attempts++ }}
		c.set(&rcfg)
		_, _, err := RunSupervised(recoverableConfig(), rcfg)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: err = %v, want a refusal naming the field", c.field, err)
		}
		if attempts != 0 {
			t.Errorf("%s: %d attempt(s) ran", c.field, attempts)
		}
		if _, err := os.Stat(dir); err == nil {
			t.Errorf("%s: store directory created", c.field)
		}
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

// TestCheckpointVersion1Refused restores a payload shaped like the version 1
// checkpoints — whose fingerprint carried a version number, JitterSpread and
// NbrRefreshCost, and no layout digest — into this build, which must refuse
// it by layout rather than resume under a model it no longer runs.
func TestCheckpointVersion1Refused(t *testing.T) {
	type fingerprintV1 struct {
		Version          int
		Sim              string
		System           string
		Ranks            int
		Steps            int
		ParticlesPerRank float64
		Ng               int
		Seed             uint64
		JitterSpread     float64
		HostOverheadS    float64
		SetupS           float64
		Strategy         string
		NbrRebuildEvery  int
		NbrRefreshCost   float64
		Degradation      string
		FaultPlan        string
		CustomFuncs      int
	}
	type checkpointV1 struct {
		Fp       fingerprintV1
		NextStep int
	}
	cfg := recoverableConfig().Defaulted()
	v1 := checkpointV1{Fp: fingerprintV1{Version: 1, Sim: string(cfg.Sim), System: cfg.System.Name,
		Ranks: cfg.Ranks, Steps: cfg.Steps, ParticlesPerRank: cfg.ParticlesPerRank, Ng: cfg.Ng,
		Seed: cfg.Seed, JitterSpread: 0.015, HostOverheadS: 1.0, SetupS: cfg.SetupS,
		Strategy: "mandyn", NbrRebuildEvery: 3, NbrRefreshCost: 0.35},
		NextStep: 4}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v1); err != nil {
		t.Fatal(err)
	}
	cfg.Recovery = &RunRecovery{Resume: &recovery.Resume{
		Snapshot: recovery.Snapshot{Path: "ckpt-v1.sprc"}, Payload: payload.Bytes()}}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf(`payload layout "", this build reads layout %q`, checkpointLayout)) {
		t.Fatalf("a version 1 checkpoint was not refused by layout: %v", err)
	}
}

// TestCheckpointVersion2Refused rewrites a real checkpoint into the version
// 2 layout, whose device states still carried UtilEMA, BusyS and the
// per-kernel Kernels ledger. gob drops fields the decoding type lacks, so
// the same bytes labelled with the current layout resume and finish the
// run exactly as an uninterrupted one: only the layout digest tells the
// layouts apart. Labelled with the digest of their own layout, as the
// build that wrote them would, they must be refused naming both digests.
func TestCheckpointVersion2Refused(t *testing.T) {
	type kernelEnergyV2 struct {
		Name     string
		Launches int64
		TimeS    float64
		EnergyJ  float64
	}
	type deviceStateV2 struct {
		Mode, LockedMHz, MemMHz                     int
		PowerLimitW, GovCurrent, GovHoldUntil, NowS float64
		EnergyJ, LastPowerW, BusyS, UtilEMA         float64
		KernelsRun                                  int64
		Kernels                                     []kernelEnergyV2
	}
	type nodeStateV2 struct {
		CPUs     []cluster.MeterState
		Mem, Aux cluster.MeterState
		Devices  []deviceStateV2
	}
	type checkpointV2 struct {
		Fp         runFingerprint
		NextStep   int
		T0         float64
		StepBounds []float64
		Load       float64
		Setup      setupEnergies
		World      mpisim.WorldState
		Nodes      []nodeStateV2
		Profiles   [][]byte
		Strategies []strategyState
	}

	ref, err := Run(recoverableConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A run stopped at its first boundary leaves a checkpoint of step 1.
	dir := t.TempDir()
	store, err := recovery.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctl := recovery.NewController(recovery.Config{Dir: dir}, store)
	ctl.RequestStop("signal:interrupt")
	cfg := recoverableConfig()
	cfg.Recovery = &RunRecovery{Controller: ctl}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	snap, payload, _, ok := store.Latest()
	if !ok {
		t.Fatal("the stopped run left no checkpoint")
	}
	cp, err := decodeCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	v2 := checkpointV2{Fp: cp.Fp, NextStep: cp.NextStep, T0: cp.T0, StepBounds: cp.StepBounds,
		Load: cp.Load, Setup: cp.Setup, World: cp.World, Profiles: cp.Profiles, Strategies: cp.Strategies}
	for _, n := range cp.Nodes {
		nv := nodeStateV2{CPUs: n.CPUs, Mem: n.Mem, Aux: n.Aux}
		for _, d := range n.Devices {
			nv.Devices = append(nv.Devices, deviceStateV2{Mode: d.Mode, LockedMHz: d.LockedMHz, MemMHz: d.MemMHz,
				PowerLimitW: d.PowerLimitW, GovCurrent: d.GovCurrent, GovHoldUntil: d.GovHoldUntil, NowS: d.NowS,
				EnergyJ: d.EnergyJ, LastPowerW: d.LastPowerW, BusyS: 0.5 * d.NowS, UtilEMA: 0.9, KernelsRun: d.KernelsRun,
				Kernels: []kernelEnergyV2{{Name: FnMomentum, Launches: d.KernelsRun, TimeS: 0.5 * d.NowS, EnergyJ: d.EnergyJ}}})
		}
		v2.Nodes = append(v2.Nodes, nv)
	}
	resume := func(layout string) (*Result, error) {
		v2.Fp.Layout = layout
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v2); err != nil {
			t.Fatal(err)
		}
		cfg := recoverableConfig()
		cfg.Recovery = &RunRecovery{Resume: &recovery.Resume{Snapshot: snap, Payload: buf.Bytes()}}
		return Run(cfg)
	}

	res, err := resume(checkpointLayout)
	if err != nil {
		t.Fatalf("the version 2 layout labelled %s: %v", checkpointLayout, err)
	}
	if got, want := modelRecord(t, res), modelRecord(t, ref); got != want {
		t.Error("the version 2 layout, labelled current, resumed into a different run")
	}
	own := layoutDigest(reflect.TypeOf(v2))
	if own == checkpointLayout {
		t.Fatal("the version 2 layout has the current layout's digest")
	}
	_, err = resume(own)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("payload layout %q, this build reads layout %q", own, checkpointLayout)) {
		t.Fatalf("a version 2 checkpoint was not refused by layout: %v", err)
	}
}

// checkpointLayoutPinned is checkpointLayout as recorded. A change to
// runCheckpoint's layout, nested types included, changes the digest:
// re-record it here on purpose, so that older checkpoints are refused.
const checkpointLayoutPinned = "7c0a1466db8ea67b"

// TestCheckpointLayoutPinned holds the digest to the recorded one, and the
// digest to the layout: a field renamed, retyped, added or dropped at any
// depth moves it, and an unexported field or a type's own name does not.
func TestCheckpointLayoutPinned(t *testing.T) {
	if checkpointLayout != checkpointLayoutPinned {
		t.Errorf("checkpoint layout digest is %s, recorded %s: re-record it if the layout change is meant",
			checkpointLayout, checkpointLayoutPinned)
	}
	type inner struct{ A, B float64 }
	type base struct {
		X  int
		In []map[string]*inner
	}
	type renamedInner struct{ A, B float64 }
	type same struct {
		X      int
		In     []map[string]*renamedInner
		hidden bool
	}
	type deepRenamed struct {
		X  int
		In []map[string]*struct{ A, C float64 }
	}
	type deepRetyped struct {
		X  int
		In []map[string]*struct{ A, B float32 }
	}
	type added struct {
		X  int
		In []map[string]*inner
		Y  int
	}
	want := layoutDigest(reflect.TypeOf(base{}))
	if got := layoutDigest(reflect.TypeOf(same{})); got != want {
		t.Errorf("an unexported field or a type name moved the digest: %s, want %s", got, want)
	}
	for name, typ := range map[string]reflect.Type{
		"deep rename": reflect.TypeOf(deepRenamed{}),
		"deep retype": reflect.TypeOf(deepRetyped{}),
		"added":       reflect.TypeOf(added{}),
	} {
		if layoutDigest(typ) == want {
			t.Errorf("%s: the digest did not move", name)
		}
	}
}
