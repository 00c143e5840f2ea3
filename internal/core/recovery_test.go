package core

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
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
	"sphenergy/internal/recovery"
	"sphenergy/internal/rng"
	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

// recoverableConfig is a small multi-rank run whose replay must reproduce a
// setup phase, ManDyn elision and jitter.
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
// boundaries, per-rank profiles — into comparable bytes. The tracer and the
// ledger are excluded: they document each attempt, while the model must be
// bit-identical across recovery.
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
// with a setup phase and ManDyn elision state with a default clock for the
// replay to reproduce.
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
// rank crash, added to cfg's fault rules in a plan seeded planSeed, and
// requires the supervisor to restart it from its on-disk checkpoint into
// want, the uninterrupted run's modelRecord, with the save, the restore and
// the restart on the ledger. It returns the recovered result.
func requireCrashRecovers(t *testing.T, cfg Config, want string, step, rank int, planSeed uint64) *Result {
	t.Helper()
	var rules []faults.Rule
	if cfg.Faults != nil {
		rules = append(rules, cfg.Faults.Rules...)
	}
	cfg.Faults = &faults.Plan{Name: "kill", Seed: planSeed, Rules: append(rules,
		faults.Rule{Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{rank}, Step: step})}
	led := events.NewLedger(0)
	res, out, err := RunSupervised(cfg, recovery.Config{
		Dir: t.TempDir(), AutosaveEvery: 1, MaxRestarts: 2, Events: led,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != recovery.StatusCompleted {
		t.Fatalf("status %q, want completed (outcome %+v)", out.Status, out)
	}
	if out.Restarts < 1 || !out.Resumed {
		t.Fatalf("crash at step %d did not force a resume: %+v", step, out)
	}
	if got := modelRecord(t, res); got != want {
		t.Errorf("recovered run diverged from uninterrupted reference\n got: %.120s...\nwant: %.120s...", got, want)
	}
	if res.Recovery == nil || res.Recovery.Checkpoints == 0 {
		t.Errorf("Result.Recovery incomplete: %+v", res.Recovery)
	}
	sum := led.Summary()
	for _, typ := range []events.Type{events.CheckpointSave, events.CheckpointRestore, events.Restart} {
		if sum.ByType[typ] == 0 {
			t.Errorf("ledger missing %s events: %+v", typ, sum.ByType)
		}
	}
	return res
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
			requireCrashRecovers(t, recoverableConfig(), want, killStep, 2, 11)
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
					requireCrashRecovers(t, cfg, want, step, rank, seed)
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
	if res1.Recovery == nil || res1.Recovery.LastCheckpoint == "" {
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
	if out2.ResumeStep != len(res1.StepBoundariesS) {
		t.Errorf("resumed at step %d, want %d", out2.ResumeStep, len(res1.StepBoundariesS))
	}
	if got, want := modelRecord(t, res2), modelRecord(t, ref); got != want {
		t.Errorf("preempted+resumed run diverged from uninterrupted reference")
	}
}

func TestSupervisedBudgetStopThenResumeCompletes(t *testing.T) {
	requireBudgetStopResumes(t, recoverableConfig(), recovery.Config{AutosaveEvery: 2})
	for seed := uint64(1); seed <= soakSeeds; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			requireBudgetStopResumes(t, soakConfig(seed),
				recovery.Config{AutosaveEvery: 1, MaxRestarts: 2})
		})
	}
}

// TestSupervisedPinnedCrashThenBudgetStopResumes kills the run with a
// pinned crash at step 2 under abort; the restarted attempt runs past it
// and is stopped by a wall-time budget, with a checkpoint beyond step 2.
// The resume from there must keep the crash disarmed in its replay, as the
// attempt that wrote the checkpoint had, and finish as the uninterrupted
// run.
func TestSupervisedPinnedCrashThenBudgetStopResumes(t *testing.T) {
	ref, err := Run(recoverableConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := recoverableConfig()
	cfg.Faults = &faults.Plan{Name: "kill", Seed: 11, Rules: []faults.Rule{
		{Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{2}, Step: 2}}}
	rcfg := recovery.Config{Dir: t.TempDir(), AutosaveEvery: 1, MaxRestarts: 2,
		WalltimeBudgetS: ref.WallTimeS * 0.6}
	res1, out1, err := RunSupervised(cfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Restarts != 1 || out1.Status != recovery.StatusStopped || out1.StopCause != recovery.StopWalltimeBudget {
		t.Fatalf("first submission ended %+v, want one restart and a budget stop", out1)
	}
	if n := len(res1.StepBoundariesS); n <= 3 || n >= cfg.Steps {
		t.Fatalf("budget stop after %d steps, want past the crash and short of %d", n, cfg.Steps)
	}

	rcfg.WalltimeBudgetS = 0
	res2, out2, err := RunSupervised(cfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Status != recovery.StatusCompleted || !out2.Resumed || out2.Restarts != 0 {
		t.Fatalf("resume ended %+v, want a completed resume without restarts", out2)
	}
	if out2.ResumeStep != len(res1.StepBoundariesS) {
		t.Errorf("resumed at step %d, want %d", out2.ResumeStep, len(res1.StepBoundariesS))
	}
	if got, want := modelRecord(t, res2), modelRecord(t, ref); got != want {
		t.Errorf("crashed, stopped and resumed run diverged from the uninterrupted reference")
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

// sleepOnce delays the first Apply ever issued by sleep, in real time only:
// the virtual model is untouched.
type sleepOnce struct {
	freqctl.Strategy
	fired *atomic.Bool
	sleep time.Duration
}

func (h sleepOnce) Apply(s freqctl.Setter, fn string) error {
	if h.fired.CompareAndSwap(false, true) {
		time.Sleep(h.sleep)
	}
	return h.Strategy.Apply(s, fn)
}

// TestSupervisedSlowStepLeavesObserversFinal: a step that takes 200 ms of
// real time is waited out, not restarted, and when RunSupervised returns
// the run's tracer and ledger are final — no attempt is left running to
// write into them — with one run-start and one run-end.
func TestSupervisedSlowStepLeavesObserversFinal(t *testing.T) {
	var fired atomic.Bool
	cfg := recoverableConfig()
	cfg.Steps = 5
	cfg.NewStrategy = func() freqctl.Strategy {
		return sleepOnce{Strategy: freqctl.Baseline{}, fired: &fired, sleep: 200 * time.Millisecond}
	}
	cfg.Tracer, cfg.Events = telemetry.NewTracer(cfg.Ranks), events.NewLedger(0)
	_, out, err := RunSupervised(cfg, recovery.Config{
		Dir: t.TempDir(), AutosaveEvery: 1, MaxRestarts: 2, Events: cfg.Events,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("the slow step never ran")
	}
	if out.Status != recovery.StatusCompleted || out.Attempts != 1 || out.Restarts != 0 {
		t.Fatalf("outcome %+v, want completed in one attempt", out)
	}
	emitted, spans := cfg.Events.Emitted(), cfg.Tracer.Len()
	time.Sleep(300 * time.Millisecond)
	if e, n := cfg.Events.Emitted(), cfg.Tracer.Len(); e != emitted || n != spans {
		t.Errorf("observers moved after return: ledger %d -> %d rows, tracer %d -> %d events", emitted, e, spans, n)
	}
	sum := cfg.Events.Summary()
	if sum.ByType[events.RunStart] != 1 || sum.ByType[events.RunEnd] != 1 {
		t.Errorf("%d run-start and %d run-end rows, want one each", sum.ByType[events.RunStart], sum.ByType[events.RunEnd])
	}
}

// stopAtApply requests a stop from the live attempt's controller at its
// atApply-th Apply, the first time the run gets there.
type stopAtApply struct {
	freqctl.Strategy
	fired   *atomic.Bool
	ctl     *atomic.Pointer[recovery.Controller]
	atApply int
	applies int
}

func (s *stopAtApply) Apply(st freqctl.Setter, fn string) error {
	s.applies++
	if s.applies == s.atApply && s.fired.CompareAndSwap(false, true) {
		s.ctl.Load().RequestStop("signal:interrupt")
	}
	return s.Strategy.Apply(st, fn)
}

// TestSupervisedStopSurvivesRestart requests a graceful stop during step 3,
// which a pinned rank crash then fails. The restarted attempt must honour
// the stop at its first step boundary after the replay, with a final
// checkpoint, instead of running the remaining steps.
func TestSupervisedStopSurvivesRestart(t *testing.T) {
	const stopStep = 3
	cfg := recoverableConfig()
	pipeline, err := Pipeline(cfg.Sim)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &faults.Plan{Name: "kill", Seed: 11, Rules: []faults.Rule{
		{Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{2}, Step: stopStep}}}
	var fired atomic.Bool
	var ctl atomic.Pointer[recovery.Controller]
	built := 0 // Run builds one strategy per rank, in rank order
	cfg.NewStrategy = func() freqctl.Strategy {
		s := &stopAtApply{Strategy: freqctl.Baseline{}, fired: &fired, ctl: &ctl, atApply: -1}
		if built%cfg.Ranks == 0 {
			s.atApply = stopStep*len(pipeline) + 1
		}
		built++
		return s
	}
	res, out, err := RunSupervised(cfg, recovery.Config{
		Dir: t.TempDir(), AutosaveEvery: 1, MaxRestarts: 2,
		OnAttempt: func(c *recovery.Controller) { ctl.Store(c) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("no stop was requested")
	}
	if out.Restarts != 1 || out.Status != recovery.StatusStopped || out.StopCause != "signal:interrupt" {
		t.Fatalf("outcome %+v, want one restart and a stop for signal:interrupt", out)
	}
	if n := len(res.StepBoundariesS); n != stopStep+1 {
		t.Errorf("the stopped run has %d steps, want %d", n, stopStep+1)
	}
	if res.Recovery == nil || res.Recovery.LastCheckpoint == "" {
		t.Errorf("the stop left no final checkpoint: %+v", res.Recovery)
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
		Dir: t.TempDir(), AutosaveEvery: 1, MaxRestarts: 2,
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
	if !out.Resumed || out.ResumeStep != panicStep {
		t.Errorf("resumed at %+v, want step %d (the last boundary before the panic)", out, panicStep)
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
// written (≈ 0.5 ms measured, most of it the fsync: the payload is the
// fingerprint, the boundaries and the energy). The plain run is under a
// millisecond of virtual-time bookkeeping, so the supervised/plain ratio
// reads several hundred per cent and says nothing; the cost per snapshot
// is the quantity a regression in the encoder or the store's write path
// moves.
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
		// A fresh store per rep: resuming a finished run replays it and
		// writes one snapshot, which would measure the replay, not the
		// autosaves.
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
	if res.Recovery == nil || ctl.StopCause() != "signal:interrupt" {
		t.Fatalf("stop request not honored: %+v, cause %q", res.Recovery, ctl.StopCause())
	}
	if len(res.StepBoundariesS) != 1 {
		t.Fatalf("stop at first boundary ran %d steps", len(res.StepBoundariesS))
	}

	res2, out, err := RunSupervised(recoverableConfig(), recovery.Config{Dir: dir})
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
		Dir: t.TempDir(), AutosaveEvery: 1, MaxRestarts: 2,
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
		Dir: t.TempDir(), MaxRestarts: 2,
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
// negative or NaN budget, which the supervisor would otherwise
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
		{"WalltimeBudgetS", func(r *recovery.Config) { r.WalltimeBudgetS = -5 }},
		{"EnergyBudgetJ", func(r *recovery.Config) { r.EnergyBudgetJ = math.NaN() }},
	} {
		dir := filepath.Join(t.TempDir(), "ckpt")
		attempts := 0
		rcfg := recovery.Config{Dir: dir, OnAttempt: func(*recovery.Controller) { attempts++ }}
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

// TestCheckpointFingerprintMismatch proves a snapshot cannot be resumed
// under a different configuration.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := RunSupervised(recoverableConfig(), recovery.Config{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	cfg := recoverableConfig()
	cfg.Seed = 99 // different run, same store
	_, _, err := RunSupervised(cfg, recovery.Config{Dir: dir, MaxRestarts: 0})
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("fingerprint mismatch accepted: %v", err)
	}
}

// resumeFrom runs recoverableConfig with its tracer and ledger on, resumed
// from payload as if it were the snapshot at path.
func resumeFrom(path string, payload []byte) (*Result, *telemetry.Tracer, *events.Ledger, error) {
	cfg := recoverableConfig()
	tr, led := telemetry.NewTracer(cfg.Ranks), events.NewLedger(0)
	cfg.Tracer, cfg.Events = tr, led
	cfg.Recovery = &RunRecovery{Resume: &recovery.Resume{
		Snapshot: recovery.Snapshot{Path: path}, Payload: payload}}
	res, err := Run(cfg)
	return res, tr, led, err
}

// requireRefused resumes recoverableConfig's run from old, a checkpoint
// payload in a layout of an earlier build, and requires the refusal to
// name the snapshot and contain each of wants, with no result and nothing
// observed.
func requireRefused(t *testing.T, old any, wants ...string) {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(old); err != nil {
		t.Fatal(err)
	}
	res, tr, led, err := resumeFrom("ckpt-old.sprc", payload.Bytes())
	for _, want := range append(wants, "checkpoint ckpt-old.sprc refused") {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("an old checkpoint was not refused with %q: %v", want, err)
		}
	}
	if res != nil || tr.Len() != 0 || led.Emitted() != 0 {
		t.Fatalf("a refused checkpoint resumed: result %v, %d trace events, %d ledger rows",
			res != nil, tr.Len(), led.Emitted())
	}
}

// fingerprintV3 is the fingerprint of the checkpoints that restored state,
// which carried the digest of their payload layout.
type fingerprintV3 struct {
	Layout           string
	Sim              string
	System           string
	Ranks            int
	Steps            int
	ParticlesPerRank float64
	Ng               int
	Seed             uint64
	SetupS           float64
	Strategy         string
	Degradation      string
	FaultPlan        string
	CustomFuncs      int
}

// oldFingerprint is recoverableConfig's fingerprint as the restoring builds
// wrote it, labelled with layout.
func oldFingerprint(layout string) fingerprintV3 {
	cfg := recoverableConfig().Defaulted()
	return fingerprintV3{Layout: layout, Sim: string(cfg.Sim), System: cfg.System.Name,
		Ranks: cfg.Ranks, Steps: cfg.Steps, ParticlesPerRank: cfg.ParticlesPerRank, Ng: cfg.Ng,
		Seed: cfg.Seed, SetupS: cfg.SetupS, Strategy: "mandyn"}
}

// TestCheckpointVersion1Refused resumes from a payload shaped like the
// version 1 checkpoints, whose fingerprint carried a version number,
// JitterSpread and NbrRefreshCost, and no layout digest. Every field this
// build's fingerprint has matches the run, but the payload records no
// trajectory to replay, so it is refused rather than resumed under a model
// this build no longer runs.
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
	fp := oldFingerprint("")
	requireRefused(t, checkpointV1{Fp: fingerprintV1{Version: 1, Sim: fp.Sim, System: fp.System,
		Ranks: fp.Ranks, Steps: fp.Steps, ParticlesPerRank: fp.ParticlesPerRank, Ng: fp.Ng,
		Seed: fp.Seed, JitterSpread: 0.015, HostOverheadS: 1.0, SetupS: fp.SetupS,
		Strategy: fp.Strategy, NbrRebuildEvery: 3, NbrRefreshCost: 0.35},
		NextStep: 4}, "0 step boundaries recorded for next step 4")
}

// TestCheckpointVersion2Refused resumes from payloads in the layouts of
// the builds that restored state instead of replaying: version 2, whose
// device states still carried UtilEMA, and the layout-digest payload that
// followed, which also held the fault injectors' states. gob drops the
// fields this build's checkpoint lacks, so each carries only its
// fingerprint with the layout digest, the run's own boundaries before step
// 4 and one such field. The replay reproduces every boundary and is
// refused at the last: the payload records no energy to check it against.
func TestCheckpointVersion2Refused(t *testing.T) {
	ref, err := Run(recoverableConfig())
	if err != nil {
		t.Fatal(err)
	}
	bounds := ref.StepBoundariesS[:4]
	type deviceStateV2 struct{ UtilEMA float64 }
	type injectorState struct{ Fired []bool }
	for _, c := range []struct {
		name    string
		payload any
	}{
		{"v2", struct {
			Fp         fingerprintV3
			NextStep   int
			StepBounds []float64
			Devices    []deviceStateV2
		}{oldFingerprint("1b4c95e3a7f0d2c8"), 4, bounds, []deviceStateV2{{UtilEMA: 0.9}}}},
		{"layout-digest", struct {
			Fp         fingerprintV3
			NextStep   int
			StepBounds []float64
			Injectors  []injectorState
		}{oldFingerprint("3858c58a06612d42"), 4, bounds, []injectorState{{Fired: []bool{true}}}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			requireRefused(t, c.payload, "replayed step 3 ends at", "J, the checkpoint records 0 J")
		})
	}
}

// TestCheckpointReplayDivergenceRefused moves one boundary of a real
// checkpoint by one ulp. Resumed directly, the run must refuse it naming
// that step, before the tracer or the ledger records anything; saved as the
// newest snapshot of a store, the supervisor must fail on it as on a
// fingerprint mismatch, and nothing resumes.
func TestCheckpointReplayDivergenceRefused(t *testing.T) {
	ref, err := Run(recoverableConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := RunSupervised(recoverableConfig(), recovery.Config{
		Dir: dir, WalltimeBudgetS: ref.WallTimeS * 0.6}); err != nil {
		t.Fatal(err)
	}
	store, err := recovery.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, payload, _, ok := store.Latest()
	if !ok {
		t.Fatal("the stopped run left no checkpoint")
	}
	var cp runCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	const moved = 2
	if cp.NextStep <= moved+1 {
		t.Fatalf("the checkpoint records %d boundaries, want more than %d", cp.NextStep, moved+1)
	}
	cp.StepBounds[moved] = math.Nextafter(cp.StepBounds[moved], math.Inf(1))
	var tampered bytes.Buffer
	if err := cp.encode(&tampered); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("checkpoint %s refused: replayed step %d ends at", snap.Path, moved)

	res, tr, led, err := resumeFrom(snap.Path, tampered.Bytes())
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("a moved boundary was not refused with %q: %v", want, err)
	}
	if res != nil || tr.Len() != 0 || led.Emitted() != 0 {
		t.Fatalf("a refused checkpoint resumed: result %v, %d trace events, %d ledger rows",
			res != nil, tr.Len(), led.Emitted())
	}

	if _, err := store.Save(snap.Meta, func(w io.Writer) error {
		_, err := w.Write(tampered.Bytes())
		return err
	}); err != nil {
		t.Fatal(err)
	}
	_, out, err := RunSupervised(recoverableConfig(), recovery.Config{Dir: dir, MaxRestarts: 0})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("the supervisor resumed past a moved boundary: %v", err)
	}
	if out.Status != recovery.StatusRestartsExhausted || out.Attempts != 1 {
		t.Fatalf("outcome %+v, want one failed attempt", out)
	}
}

// TestSupervisedSampledResumeBitIdentical kills a sampled run whose sensor
// reads fault transiently: the resumed run must be the uninterrupted one in
// its model, in every sampler channel, whose baseline poll, sensor fault
// draws and ticks cover the whole run only when the resume replays it, and
// in its rank-0 clock and power trace.
func TestSupervisedSampledResumeBitIdentical(t *testing.T) {
	cfg := recoverableConfig()
	cfg.Sampling = sampler.Config{GPUHz: 100, NodeHz: 10}
	cfg.Trace = true
	cfg.Faults = &faults.Plan{Name: "sensor", Seed: 5, Rules: []faults.Rule{
		{Kind: faults.Transient, Target: faults.TargetSensor, Probability: 0.2},
	}}
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats := modelRecord(t, ref), ref.Sampler.Stats()
	faulted := uint64(0)
	for _, st := range wantStats {
		faulted += st.FaultReads
	}
	if faulted == 0 {
		t.Fatal("the sensor rule faulted no read")
	}
	for _, killStep := range []int{2, 4, 6} {
		t.Run(fmt.Sprintf("kill-step-%d", killStep), func(t *testing.T) {
			res := requireCrashRecovers(t, cfg, want, killStep, 2, 5)
			if got := res.Sampler.Stats(); !reflect.DeepEqual(got, wantStats) {
				t.Errorf("sampler channels differ from the uninterrupted run's\n got: %+v\nwant: %+v", got, wantStats)
			}
			if got, want := res.Trace.Points(), ref.Trace.Points(); !reflect.DeepEqual(got, want) {
				t.Errorf("rank-0 trace has %d points, the uninterrupted run's %d, or they differ", len(got), len(want))
			}
		})
	}
}
