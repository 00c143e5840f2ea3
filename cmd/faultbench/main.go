// Command faultbench is the chaos harness for the fault-injection and
// graceful-degradation layer: it sweeps seeded fault plans (transient
// sensor faults, a clamped-clock window, a straggler rank, optionally a
// rank crash) over short instrumented runs and asserts the measurement
// contract the paper's workflow depends on:
//
//  1. the run completes without panic and every degradation is surfaced
//     (sampler flags, clamped-set counters, rank-failure records);
//  2. the two-gate attribution contract holds on clean rows — intervals
//     that rest on estimated sensor data are classified (degraded or
//     unresolvable), never silently gated;
//  3. the whole run is bit-identical across two same-seed executions
//     (compared on the serialized result summary, which carries the
//     decision ledger's per-type counts: freq-decision, freq-clamp,
//     freq-retry, ...).
//
// Any violation exits non-zero, which makes `make chaos-smoke` a CI
// gate. Examples:
//
//	faultbench -seeds 5
//	faultbench -seeds 20 -ranks 4 -steps 4 -crash -out chaos.json
//
// The -soak mode is the recovery chaos harness instead: it kills a
// supervised run with a pinned rank crash at seeded random steps and
// asserts every run restarts from its on-disk checkpoint and converges to
// a final state bit-identical to the uninterrupted reference, then proves
// the preemption path (walltime-budget stop, resume, same final state):
//
//	faultbench -soak -kills 10 -s 8
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"sphenergy"
	"sphenergy/internal/atomicio"
	"sphenergy/internal/attrib"
	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/events"
	"sphenergy/internal/faults"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/recovery"
	"sphenergy/internal/rng"
	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

// seedResult is the per-seed record written to -out; it is also the
// payload the determinism check byte-compares between the two runs.
type seedResult struct {
	Seed       uint64             `json:"seed"`
	WallTimeS  float64            `json:"wall_time_s"`
	EnergyJ    float64            `json:"energy_j"`
	AttribPass bool               `json:"attrib_pass"`
	AggErrPct  float64            `json:"agg_err_pct"`
	Degraded   int                `json:"degraded_rows"`
	Faults     *faults.Report     `json:"faults"`
	Kernels    []attrib.Row       `json:"kernels,omitempty"`
	Failures   []core.RankFailure `json:"failures,omitempty"`
	// Events counts the decision ledger's events by type.
	Events map[events.Type]uint64 `json:"events"`
}

func main() {
	var (
		seeds  = flag.Int("seeds", 3, "number of seeded plans to sweep")
		seed0  = flag.Uint64("seed0", 1, "first seed of the sweep")
		system = flag.String("system", "minihpc", "system: lumi-g, cscs-a100 or minihpc")
		ranks  = flag.Int("ranks", 2, "MPI ranks")
		steps  = flag.Int("s", 3, "time-steps per run")
		ppr    = flag.Float64("ppr", 10e6, "particles per rank")
		crash  = flag.Bool("crash", false, "also crash one rank mid-run (degradation policy drop-rank)")
		out    = flag.String("out", "", "write the per-seed JSON records to this path")
		quiet  = flag.Bool("q", false, "only print the final verdict")
		soak   = flag.Bool("soak", false, "run the recovery soak instead: seeded kill-and-recover sweep with bit-identity checks")
		kills  = flag.Int("kills", 10, "kill points per seed in -soak mode")
	)
	flag.Parse()

	spec, err := sphenergy.SystemByName(*system)
	fatalIf(err)

	if *soak {
		failed := false
		for i := 0; i < *seeds; i++ {
			seed := *seed0 + uint64(i)
			if err := runSoak(spec, seed, *ranks, *steps, *ppr, *kills, *quiet); err != nil {
				fmt.Fprintf(os.Stderr, "faultbench: soak seed %d: %v\n", seed, err)
				failed = true
			}
		}
		if failed {
			fmt.Println("recovery soak: FAIL")
			os.Exit(1)
		}
		fmt.Printf("recovery soak: PASS (%d seeds x %d kill points + preemption, every recovery bit-identical)\n",
			*seeds, *kills)
		return
	}

	var results []seedResult
	failed := false
	for i := 0; i < *seeds; i++ {
		seed := *seed0 + uint64(i)
		a, err := runChaos(spec, seed, *ranks, *steps, *ppr, *crash)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faultbench: seed %d: %v\n", seed, err)
			failed = true
			continue
		}
		b, err := runChaos(spec, seed, *ranks, *steps, *ppr, *crash)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faultbench: seed %d (replay): %v\n", seed, err)
			failed = true
			continue
		}
		ja, jb := mustJSON(a), mustJSON(b)
		if !bytes.Equal(ja, jb) {
			fmt.Fprintf(os.Stderr, "faultbench: seed %d NOT deterministic:\n%s\nvs\n%s\n", seed, ja, jb)
			failed = true
			continue
		}
		if !a.AttribPass {
			fmt.Fprintf(os.Stderr,
				"faultbench: seed %d violated the two-gate contract: agg err %.3f%% with %d degraded rows classified\n",
				seed, a.AggErrPct, a.Degraded)
			failed = true
		}
		if !*quiet {
			fmt.Printf("seed %-4d wall %8.2f s  energy %12.1f J  degraded rows %2d  injections %s\n",
				seed, a.WallTimeS, a.EnergyJ, a.Degraded, injectionSummary(a.Faults))
		}
		results = append(results, a)
	}

	if *out != "" {
		fatalIf(atomicio.WriteFile(*out, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(results)
		}))
	}
	if failed {
		fmt.Println("chaos sweep: FAIL")
		os.Exit(1)
	}
	fmt.Printf("chaos sweep: PASS (%d seeds, bit-identical replays, contract held)\n", len(results))
}

// runChaos executes one seeded chaos run and folds the result into the
// comparable summary. The plan stacks every fault family the framework
// supports on top of a ManDyn-driven run so the sensor, clock-control
// and rank layers all see injections, with every observer on: tracer,
// metrics, sampler and decision ledger.
func runChaos(spec cluster.NodeSpec, seed uint64, ranks, steps int, ppr float64, crash bool) (seedResult, error) {
	max := spec.GPUSpec.MaxSMClockMHz
	plan := &faults.Plan{Name: fmt.Sprintf("chaos-%d", seed), Seed: seed, Rules: []faults.Rule{
		{Kind: faults.Transient, Target: faults.TargetSensor, Probability: 0.15},
		{Kind: faults.Stuck, Target: faults.TargetNodeSensor, Probability: 0.05, Burst: 3},
		{Kind: faults.ClampedClock, Target: faults.TargetClock, MHz: max * 2 / 3, StartS: 5},
		{Kind: faults.Straggler, Target: faults.TargetRank, Ranks: []int{0}, Probability: 0.1, Factor: 2},
	}}
	policy := ""
	if crash && ranks > 1 {
		plan.Rules = append(plan.Rules, faults.Rule{
			Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{ranks - 1}, Step: steps / 2,
		})
		policy = core.DegradeDropRank
	}
	cfg := sphenergy.Config{
		System:           spec,
		Ranks:            ranks,
		Sim:              core.Turbulence,
		ParticlesPerRank: ppr,
		Steps:            steps,
		Seed:             seed,
		Tracer:           telemetry.NewTracer(ranks),
		Metrics:          telemetry.NewRegistry(),
		Events:           events.NewLedger(0),
		Sampling:         sampler.Config{GPUHz: 100, NodeHz: 10},
		Faults:           plan,
		Degradation:      policy,
		NewStrategy: func() freqctl.Strategy {
			return &freqctl.ManDyn{Table: map[string]int{
				core.FnMomentum: max, core.FnIAD: max,
			}, Default: max * 3 / 4}
		},
	}
	res, err := sphenergy.Run(cfg)
	if err != nil {
		return seedResult{}, err
	}
	if res.Attribution == nil {
		return seedResult{}, fmt.Errorf("no attribution produced")
	}
	return seedResult{
		Seed:       seed,
		WallTimeS:  res.WallTimeS,
		EnergyJ:    res.EnergyJ(),
		AttribPass: res.Attribution.Pass,
		AggErrPct:  res.Attribution.AggErrPct,
		Degraded:   res.Attribution.DegradedRows,
		Faults:     res.Faults,
		Kernels:    res.Attribution.Kernels,
		Failures:   res.Failures,
		Events:     res.Events.ByType,
	}, nil
}

// soakConfig is the supervised run under chaos: model-only (no sampler or
// tracer, whose ring buffers document attempts rather than model truth),
// with a setup phase, ManDyn elision state, and the Verlet-skin rebuild
// cadence so every checkpointed state surface is exercised.
func soakConfig(spec cluster.NodeSpec, seed uint64, ranks, steps int, ppr float64) sphenergy.Config {
	max := spec.GPUSpec.MaxSMClockMHz
	return sphenergy.Config{
		System:               spec,
		Ranks:                ranks,
		Sim:                  core.Turbulence,
		ParticlesPerRank:     ppr,
		Steps:                steps,
		Seed:                 seed,
		SetupS:               1,
		NeighborRebuildEvery: 3,
		NewStrategy: func() freqctl.Strategy {
			return &freqctl.ManDyn{Table: map[string]int{
				core.FnMomentum: max, core.FnIAD: max,
			}, Default: max * 3 / 4}
		},
	}
}

// soakRecord flattens a run's model truth into comparable bytes — the same
// surface the recovery tests compare (wall time, energies, step boundaries,
// per-rank profiles); observability is excluded by design.
func soakRecord(res *sphenergy.Result) []byte {
	return mustJSON(map[string]any{
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
}

// runSoak proves the recovery contract for one seed: an uninterrupted
// reference run, then kills kill-points at seeded random steps (pinned rank
// crash under the default abort policy) and requires the supervisor to
// restart each from disk and converge bit-identically; finally a
// walltime-budget preemption plus resume must land on the same state.
func runSoak(spec cluster.NodeSpec, seed uint64, ranks, steps int, ppr float64, kills int, quiet bool) error {
	if steps < 2 {
		return fmt.Errorf("soak needs at least 2 steps, have %d", steps)
	}
	base := soakConfig(spec, seed, ranks, steps, ppr)
	ref, err := sphenergy.Run(base)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	want := soakRecord(ref)

	r := rng.New(seed ^ 0x50AC50AC)
	for i := 0; i < kills; i++ {
		// Kill at step >= 1 so at least one autosave precedes the crash;
		// a step-0 crash has no snapshot and would exhaust restarts.
		killStep := 1 + r.Intn(steps-1)
		killRank := r.Intn(ranks)
		dir, err := os.MkdirTemp("", "sphenergy-soak-*")
		if err != nil {
			return err
		}
		cfg := base
		cfg.Faults = &faults.Plan{Name: "soak-kill", Seed: seed, Rules: []faults.Rule{
			{Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{killRank}, Step: killStep},
		}}
		led := sphenergy.NewEventLedger(0)
		res, outcome, err := sphenergy.RunSupervised(cfg, sphenergy.RecoveryConfig{
			Dir: dir, AutosaveEvery: 1, MaxRestarts: 2, BackoffS: 0.001, Seed: seed, Events: led,
		})
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("kill at step %d rank %d: %w", killStep, killRank, err)
		}
		if outcome.Restarts < 1 || !outcome.Resumed {
			return fmt.Errorf("kill at step %d rank %d: no restart happened (%+v)", killStep, killRank, outcome)
		}
		sum := led.Summary()
		if sum.ByType[events.Restart] < 1 || sum.ByType[events.CheckpointRestore] < 1 {
			return fmt.Errorf("kill at step %d: restart not visible in ledger: %v", killStep, sum.ByType)
		}
		if got := soakRecord(res); !bytes.Equal(got, want) {
			return fmt.Errorf("kill at step %d rank %d: recovered state NOT bit-identical:\n%s\nvs\n%s",
				killStep, killRank, got, want)
		}
		if !quiet {
			fmt.Printf("soak seed %-4d kill %2d/%d: step %2d rank %d -> recovered from step %d, bit-identical\n",
				seed, i+1, kills, killStep, killRank, outcome.ResumeStep)
		}
	}

	// Preemption path: budget-stop halfway, then resume to completion.
	dir, err := os.MkdirTemp("", "sphenergy-soak-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rcfg := sphenergy.RecoveryConfig{
		Dir: dir, AutosaveEvery: 1, MaxRestarts: 2, BackoffS: 0.001, Seed: seed,
		WalltimeBudgetS: ref.WallTimeS * 0.5,
	}
	_, outcome, err := sphenergy.RunSupervised(base, rcfg)
	if err != nil {
		return fmt.Errorf("preemption run: %w", err)
	}
	if outcome.Status != recovery.StatusStopped || outcome.StopCause != recovery.StopWalltimeBudget {
		return fmt.Errorf("preemption run did not budget-stop: %+v", outcome)
	}
	rcfg.WalltimeBudgetS = 0
	res, outcome, err := sphenergy.RunSupervised(base, rcfg)
	if err != nil {
		return fmt.Errorf("resume after preemption: %w", err)
	}
	if !outcome.Resumed {
		return fmt.Errorf("resume after preemption started fresh: %+v", outcome)
	}
	if got := soakRecord(res); !bytes.Equal(got, want) {
		return fmt.Errorf("preempt+resume NOT bit-identical:\n%s\nvs\n%s", got, want)
	}
	if !quiet {
		fmt.Printf("soak seed %-4d preemption: stopped at %.1fs budget, resumed from step %d, bit-identical\n",
			seed, ref.WallTimeS*0.5, outcome.ResumeStep)
	}
	return nil
}

func injectionSummary(f *faults.Report) string {
	if f == nil || len(f.Injected) == 0 {
		return "none"
	}
	total := uint64(0)
	for _, ic := range f.Injected {
		total += ic.Count
	}
	return fmt.Sprintf("%d across %d streams", total, len(f.Injected))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultbench:", err)
		os.Exit(1)
	}
}
