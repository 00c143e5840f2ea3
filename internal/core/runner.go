package core

import (
	"fmt"
	"io"
	"math"

	"sphenergy/internal/attrib"
	"sphenergy/internal/cluster"
	"sphenergy/internal/events"
	"sphenergy/internal/faults"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/instr"
	"sphenergy/internal/mpisim"
	"sphenergy/internal/pmt"
	"sphenergy/internal/recovery"
	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

// Config describes one instrumented simulation run at paper scale.
type Config struct {
	// System is the node architecture (Table I).
	System cluster.NodeSpec
	// Ranks is the MPI rank count; one rank drives one GPU die.
	Ranks int
	// Sim selects the workload pipeline.
	Sim SimKind
	// ParticlesPerRank is the local problem size (150e6 for Turbulence,
	// 80e6 for Evrard in the paper's large runs; 450³ ≈ 91.1e6 on miniHPC).
	ParticlesPerRank float64
	// Ng is the SPH neighbor count (production SPH-EXA uses ~150).
	Ng int
	// Steps is the number of time-steps (the paper uses 100).
	Steps int
	// CustomPipeline supplies the instrumented function sequence when Sim
	// is Custom, letting any GPU-accelerated code adopt the measurement and
	// ManDyn machinery (the paper's §V future work).
	CustomPipeline []FuncModel
	// NewStrategy builds a per-rank frequency strategy. Nil means Baseline.
	NewStrategy func() freqctl.Strategy
	// Seed drives the deterministic load-imbalance jitter.
	Seed uint64
	// JitterSpread is the relative per-function load imbalance (default 1.5%).
	JitterSpread float64
	// Trace enables frequency/power trace recording on rank TraceRank's GPU.
	Trace     bool
	TraceRank int
	// SetupS simulates the job-setup phase (launch, allocation, moving
	// simulation data to GPU memory) that precedes the time-stepping loop.
	// Slurm's energy accounting covers it; PMT instrumentation does not —
	// the gap Fig. 3 quantifies. 0 disables it.
	SetupS float64
	// HostOverheadScale scales the fixed host-side per-step overheads
	// (1.0 default); ablations use it.
	HostOverheadScale float64
	// KeepSeries records every function's per-call time in the report
	// (per-step timelines for variability analysis).
	KeepSeries bool
	// NeighborRebuildEvery models the SPH layer's Verlet-skin neighbor-list
	// reuse: the FindNeighbors phase performs a full candidate rebuild only
	// every K-th step and a cheap streaming refresh in between, whose
	// modeled work is the NeighborRefreshCost fraction of a rebuild's. 0 or
	// 1 rebuilds every step (the pre-skin behavior, byte-identical). The
	// function phase — and its span, attribution row and frequency-switch
	// point — still exists on refresh steps, matching the real pipeline.
	NeighborRebuildEvery int
	// NeighborRefreshCost is the refresh:rebuild work ratio in (0, 1];
	// defaults to 0.35 (the measured CPU-side ratio of the SPH harness)
	// when NeighborRebuildEvery enables reuse.
	NeighborRefreshCost float64
	// Tracer, when non-nil, receives the run's span timeline — steps,
	// instrumented functions, kernel launches, frequency changes, MPI
	// waits — exportable as Chrome trace_event JSON. Nil disables span
	// recording at the cost of one nil check per hook.
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, receives the run's counters, gauges and
	// histograms (kernel_launches_total, gpu_clock_mhz, step_energy_j, ...)
	// for Prometheus exposition or JSON snapshots. Nil disables metrics.
	Metrics *telemetry.Registry
	// Sampling, when enabled, runs the async power sampler during the job:
	// every rank's GPU sensor at Sampling.GPUHz plus one pm_counters node
	// sensor per node at Sampling.NodeHz. With a Tracer present, the
	// sampled series are joined against the kernel/function spans into
	// Result.Attribution; with Metrics present, live power gauges and
	// cumulative-energy counters are exported per sensor.
	Sampling sampler.Config
	// Faults, when non-nil and active, injects the plan's fault rules into
	// the run: sensor-read faults on every rank's GPU sensor and every
	// node's pm_counters view, clock-control faults on every rank's setter
	// (which is then wrapped in a freqctl.ResilientSetter), and
	// straggler/crash faults on rank execution. Nil keeps the healthy path
	// byte-identical to an unfaulted run.
	Faults *faults.Plan
	// Degradation selects the rank-failure policy: DegradeAbort (default),
	// DegradeDropRank or DegradeRedistribute.
	Degradation string
	// Resilience tunes the resilient setter wrapped around each rank's
	// clock control when Faults is active; the zero value uses defaults
	// (per-rank jitter seeds derived from Seed).
	Resilience freqctl.ResilienceConfig
	// ProfileLabels attaches a pprof label ("pass" = function name) to the
	// run's goroutine around each pipeline phase, so CPU-profile samples —
	// the ranks' kernel work included, which steps on that goroutine — group
	// per pass in `go tool pprof -tags`. Off by default:
	// pprof.Do allocates per call, which the hot loop should not pay unless
	// a profile is actually being taken.
	ProfileLabels bool
	// Events, when non-nil, receives the run's decision ledger: frequency
	// requests and outcomes per rank (with the tuner's predicted
	// time/energy/EDP when SetPredictions was called), resilient-setter
	// actions, sampler degradation transitions, neighbor rebuild/refresh
	// triggers, rank failures, and step/run boundary records. Nil disables
	// the ledger at the cost of one nil check per hook; an enabled ledger
	// never perturbs the simulation (see internal/events).
	Events *events.Ledger
	// Recovery, when non-nil, makes the run durable and interruptible: the
	// Controller receives a step-boundary hook for autosave checkpoints,
	// watchdog heartbeats and budget enforcement, and Resume (when set)
	// restores a snapshot before stepping instead of starting from step 0.
	// A resumed run's model state is bit-identical to an uninterrupted one;
	// see internal/recovery and RunSupervised. Nil keeps the seed behaviour.
	Recovery *RunRecovery
}

// Defaulted returns the config with defaults filled in.
func (c Config) Defaulted() Config {
	if c.Ng == 0 {
		c.Ng = 150
	}
	if c.Steps == 0 {
		c.Steps = 100
	}
	if c.NewStrategy == nil {
		c.NewStrategy = func() freqctl.Strategy { return freqctl.Baseline{} }
	}
	if c.JitterSpread == 0 {
		c.JitterSpread = 0.015
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.HostOverheadScale == 0 {
		c.HostOverheadScale = 1
	}
	if c.NeighborRebuildEvery > 1 && c.NeighborRefreshCost == 0 {
		c.NeighborRefreshCost = 0.35
	}
	return c
}

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	if c.Ranks < 1 {
		return fmt.Errorf("core: need at least 1 rank, got %d", c.Ranks)
	}
	if c.ParticlesPerRank <= 0 {
		return fmt.Errorf("core: non-positive particles per rank")
	}
	switch c.Sim {
	case Turbulence, Evrard:
	case Custom:
		if len(c.CustomPipeline) == 0 {
			return fmt.Errorf("core: Custom simulation requires a CustomPipeline")
		}
	default:
		return fmt.Errorf("core: unknown simulation %q", c.Sim)
	}
	memNeed := c.ParticlesPerRank * particleBytes / 1e9
	if memNeed > c.System.GPUSpec.MemSizeGB {
		return fmt.Errorf("core: %g particles/rank need %.0f GB > %s's %.0f GB GPU memory",
			c.ParticlesPerRank, memNeed, c.System.Name, c.System.GPUSpec.MemSizeGB)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if !validPolicy(c.Degradation) {
		return fmt.Errorf("core: unknown degradation policy %q (want %s, %s or %s)",
			c.Degradation, DegradeAbort, DegradeDropRank, DegradeRedistribute)
	}
	if c.NeighborRebuildEvery < 0 {
		return fmt.Errorf("core: negative NeighborRebuildEvery %d", c.NeighborRebuildEvery)
	}
	if c.NeighborRefreshCost < 0 || c.NeighborRefreshCost > 1 {
		return fmt.Errorf("core: NeighborRefreshCost %g outside (0, 1]", c.NeighborRefreshCost)
	}
	return nil
}

// particleBytes is the device memory footprint per particle (SoA fields),
// used to enforce the paper's memory-capacity constraint (§IV-C: miniHPC's
// 40 GB forced smaller runs, at most 450³ ≈ 91 M particles).
const particleBytes = 280

// hostOverheads are fixed per-step host-side serial times (seconds) during
// which the GPU idles: kernel-launch stalls, CPU partitioning work,
// collective completion. They are what lets the DVFS governor decay clocks
// at step boundaries (Fig. 9) and what makes small problems insensitive to
// GPU frequency (Fig. 6).
var hostOverheads = map[string]float64{
	FnDomainDecomp:  0.120,
	FnTimestep:      0.070,
	FnFindNeighbors: 0.012,
	FnXMass:         0.006,
	FnGradh:         0.006,
	FnEOS:           0.004,
	FnIAD:           0.008,
	FnAVSwitches:    0.004,
	FnMomentum:      0.008,
	FnUpdate:        0.006,
	FnGravity:       0.016,
}

// defaultHostOverheadS applies to custom-pipeline functions without an
// entry in hostOverheads.
const defaultHostOverheadS = 0.004

// Result is the outcome of a run.
type Result struct {
	Report *instr.Report
	System *cluster.System
	// WallTimeS is the time-to-solution of the time-stepping loop.
	WallTimeS float64
	// Trace is non-nil when Config.TraceRank was set.
	Trace *gpusim.Trace
	// SetupTimeS and SetupEnergyJ cover the pre-loop job phase; only Slurm
	// accounting sees them (Report covers the instrumented loop only).
	SetupTimeS   float64
	SetupEnergyJ float64
	// StepBoundariesS records the virtual time at the end of each step, for
	// trace alignment (Fig. 9's 10-step window).
	StepBoundariesS []float64
	// Sampler holds the async power sampler's channels and series when
	// Config.Sampling was enabled, nil otherwise.
	Sampler *sampler.Sampler
	// Attribution is the span-joined per-kernel/per-function energy
	// accounting (also attached to Report); non-nil when both Sampling and
	// a Tracer were configured.
	Attribution *attrib.Attribution
	// Failures lists injected rank deaths handled by the degradation
	// policy (empty on healthy runs and under DegradeAbort, which errors).
	Failures []RankFailure
	// Faults summarizes injections and resilience actions; nil when no
	// plan was configured.
	Faults *FaultReport
	// Events is the decision-ledger roll-up (emitted/dropped counts per
	// type); nil when Config.Events was unset.
	Events *events.Summary
	// Recovery summarizes checkpoint/restore activity; nil when
	// Config.Recovery was unset.
	Recovery *RecoveryInfo
}

// EnergyJ returns total allocation energy.
func (r *Result) EnergyJ() float64 { return r.Report.TotalEnergyJ }

// GPUEnergyJ returns total GPU energy.
func (r *Result) GPUEnergyJ() float64 { return r.Report.GPUEnergyJ }

// EDP returns the allocation-level energy-delay product.
func (r *Result) EDP() float64 { return r.Report.TotalEnergyJ * r.WallTimeS }

// GPUEDP returns the GPU-energy EDP, the per-GPU metric of Figs. 6-8.
func (r *Result) GPUEDP() float64 { return r.Report.GPUEnergyJ * r.WallTimeS }

// phase is one pipeline function as the step loop sees it: its model and the
// two costs that follow its kernels on every step.
type phase struct {
	fn    *FuncModel
	commS float64 // post-kernel communication
	hostS float64 // host-side serial overhead, scaled
}

// rankCtx is the per-rank execution context.
type rankCtx struct {
	node     *cluster.Node
	dev      *gpusim.Device
	setter   freqctl.Setter
	strategy freqctl.Strategy
	sensor   pmt.Sensor
	profile  *instr.RankProfile
	// samp is the rank's async sampling channel (nil when sampling is off);
	// polled inside the rank's phases at kernel and idle boundaries.
	samp *sampler.Channel
}

// Run executes the instrumented time-stepping loop.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.Defaulted()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pipeline := cfg.CustomPipeline
	if cfg.Sim != Custom {
		var err error
		pipeline, err = Pipeline(cfg.Sim)
		if err != nil {
			return nil, err
		}
	}

	nodes := cfg.System.NodesForRanks(cfg.Ranks)
	system := cluster.NewSystem(cfg.System, nodes)
	net := mpisim.DefaultNetwork(system.RanksPerNode())
	world := mpisim.NewWorld(cfg.Ranks, net, cfg.Seed)

	rt := newRunTelemetry(cfg)
	if rec := rt.spanRecorder(); rec != nil {
		world.SetRecorder(rec)
	}

	fs := newFaultState(cfg, len(system.Nodes))
	re := newRunEvents(cfg)

	ranks := make([]*rankCtx, cfg.Ranks)
	for r := 0; r < cfg.Ranks; r++ {
		node, dev, err := system.DeviceForRank(r)
		if err != nil {
			return nil, err
		}
		setter, err := freqctl.SetterFor(dev)
		if err != nil {
			return nil, err
		}
		rc := &rankCtx{
			node:     node,
			dev:      dev,
			setter:   setter,
			strategy: cfg.NewStrategy(),
			profile:  instr.NewRankProfile(r),
		}
		rc.profile.SeriesEnabled = cfg.KeepSeries
		rc.sensor = faultedSensorFor(dev, fs.sensorHook(r, dev))
		fs.wireRank(rc, r, cfg)
		re.instrumentRank(rc, r)
		rt.instrumentRank(rc, r)
		ranks[r] = rc
	}

	var trace *gpusim.Trace
	if cfg.Trace && cfg.TraceRank >= 0 && cfg.TraceRank < cfg.Ranks {
		trace = ranks[cfg.TraceRank].dev.EnableTrace()
		rt.attachTraceSink(trace, cfg.TraceRank)
	}

	// Checkpoint restore happens here — after every rank's setter, strategy
	// and fault wiring exist, and before the sampler's t=0 baseline poll and
	// the setup phase, whose effects the restored state already contains.
	var resumed *resumedState
	if cfg.Recovery != nil && cfg.Recovery.Resume != nil {
		var err error
		resumed, err = restoreRun(cfg.Recovery.Resume, cfg, system, world, ranks, fs)
		if err != nil {
			return nil, err
		}
	}

	// Async power sampling: one channel per rank GPU sensor, one
	// pm_counters node channel per node. Rank channels poll inside their
	// rank's phases at kernel/idle boundaries; node channels poll between
	// phases. The initial PollAll establishes the
	// t=0 energy baseline so node accumulation covers the setup phase —
	// matching Slurm's from-submission scope.
	var smp *sampler.Sampler
	if cfg.Sampling.Enabled() {
		smp = sampler.New(cfg.Sampling)
		smp.SetTransitionSink(re.samplerSink())
		smp.BindMetrics(cfg.Metrics)
		for r, rc := range ranks {
			rc.samp = smp.AddRank(r, rc.sensor)
		}
		for i, n := range system.Nodes {
			smp.AddNode(i, fs.nodeSensor(i, n, world.MaxClock))
		}
		smp.PollAll()
	}

	// On any mid-run failure the hardware state is restored before
	// returning: every rank's clocks are reset (best-effort) and the
	// sampler takes a final flush so partial series stay consistent. The
	// partial Result carries the system and sampler for diagnosis.
	fail := func(err error) (*Result, error) {
		for _, rc := range ranks {
			_ = rc.setter.ResetClocks()
		}
		if smp != nil {
			smp.PollAll()
		}
		re.endRun(world.MaxClock())
		res := &Result{System: system, Sampler: smp, Events: re.summary()}
		if fs != nil {
			res.Failures = fs.failures
			res.Faults = fs.report(smp, cfg.Metrics)
		}
		return res, err
	}

	// Job setup phase: launch, allocation, host→device transfer. GPUs are
	// mostly idle (the paper's §IV-A observation that setup energy is
	// limited because the GPUs idle through it); the host is busy staging.
	var setup setupEnergies
	if cfg.SetupS > 0 && resumed == nil {
		for r := 0; r < cfg.Ranks; r++ {
			ranks[r].dev.Idle(cfg.SetupS)
			world.Advance(r, cfg.SetupS)
		}
		for _, n := range system.Nodes {
			n.AdvanceHost(cfg.SetupS, 0.35, 0.40)
		}
		for _, n := range system.Nodes {
			setup.GPU += n.GPUEnergyJ()
			setup.CPU += n.CPUEnergyJ()
			setup.Mem += n.Mem.Meter.EnergyJ()
			setup.Other += n.Aux.EnergyJ()
		}
		setup.Total = setup.GPU + setup.CPU + setup.Mem + setup.Other
		if rt != nil {
			rt.tr.Complete(telemetry.GlobalTrack, "phase", "job-setup", 0, cfg.SetupS,
				telemetry.Float("energy_j", setup.Total))
		}
		smp.PollAll()
	}

	// Strategy setup (once per rank, before the loop — the paper's
	// instrumentation point at time-stepping start). A resumed run skips
	// it: the restored device state already reflects it, and re-running it
	// would reset governor/elision state mid-sequence and diverge.
	re.beginRun(cfg, ranks[0].strategy.Name())
	if resumed == nil {
		for _, rc := range ranks {
			if err := rc.strategy.Setup(rc.setter); err != nil {
				// Earlier ranks may already hold non-default clocks; fail()
				// resets them all.
				return fail(fmt.Errorf("core: strategy setup: %w", err))
			}
		}
	}

	vendor := cfg.System.GPUSpec.Vendor
	t0 := world.MaxClock()
	stepBounds := make([]float64, 0, cfg.Steps)
	startStep := 0
	if resumed != nil {
		setup = resumed.setup
		t0 = resumed.t0
		stepBounds = append(stepBounds, resumed.stepBounds...)
		startStep = resumed.nextStep
	}

	// A strategy failure inside a rank's phase surfaces as a run error at
	// the step boundary; the first one wins.
	var strategyErr error

	// Rank fault injection: the world consults the per-rank injectors at
	// every phase; curStep and load change between phases only.
	curStep := startStep
	load := 1.0
	if resumed != nil {
		load = resumed.load
		if re != nil {
			// Degradation events fire on load transitions; seed the tracker
			// so a restored multiplier does not re-fire spuriously.
			re.lastLoad = load
		}
	}
	fs.wireWorld(world, ranks, func() int { return curStep })
	re.trackSteps(func() int { return curStep })

	// A checkpoint is encoded lazily at a step boundary: nextStep is the
	// first step a restore will execute; everything else is read from the
	// loop's live variables at call time (a step boundary: no phase is open).
	snapshotAt := func(nextStep int) func(w io.Writer) error {
		return func(w io.Writer) error {
			cp, err := captureCheckpoint(cfg, system, world, ranks, fs,
				nextStep, t0, stepBounds, load, setup)
			if err != nil {
				return err
			}
			return cp.encode(w)
		}
	}
	stopped := false

	// Step telemetry reuses bounds the loop computes anyway: the step span
	// runs from the previous step's boundary, and its energy accumulates
	// from the per-rank attribution below — no extra clock or meter reads.
	stepStart := t0
	if len(stepBounds) > 0 {
		stepStart = stepBounds[len(stepBounds)-1]
	}

	// What the loop needs of each pipeline function is constant over the
	// run and worked out here, once; a function is then known by its slot.
	phases := make([]phase, len(pipeline))
	for i := range pipeline {
		fn := &pipeline[i]
		hostS, known := hostOverheads[fn.Name]
		if !known {
			hostS = defaultHostOverheadS // custom pipelines
		}
		phases[i] = phase{fn: fn, commS: commTime(*fn, cfg, net), hostS: hostS * cfg.HostOverheadScale}
	}

	// The phase loop allocates nothing: its per-rank and per-node scratch,
	// and the closures the world steps the ranks through, are built once
	// here and read the loop's current fn/nbrRefresh/load/waits/tail.
	var (
		fn          *FuncModel
		nbrRefresh  bool
		durs, waits []float64
		tail        float64
	)
	gpuStart := make([]pmt.State, cfg.Ranks)
	ran := make([]bool, cfg.Ranks)
	// One rank's share of its node's host energy over the current phase.
	hostShare := make([]struct{ cpuJ, memJ, otherJ float64 }, len(system.Nodes))
	rpn := system.RanksPerNode()
	// Kernel execution on one rank. Dead ranks are skipped by the world;
	// load > 1 spreads failed ranks' particles over the survivors
	// (DegradeRedistribute).
	kernelPhase := func(r int) float64 {
		rc := ranks[r]
		if err := rc.strategy.Apply(rc.setter, fn.Name); err != nil {
			if strategyErr == nil {
				strategyErr = fmt.Errorf("core: strategy apply on rank %d: %w", r, err)
			}
			return 0
		}
		ran[r] = true
		gpuStart[r] = rc.sensor.Read()
		desc := fn.Kernel(cfg.ParticlesPerRank*load*world.Jitter(r, cfg.JitterSpread), cfg.Ng, vendor)
		if nbrRefresh && fn.Name == FnFindNeighbors {
			desc.FlopsPerItem *= cfg.NeighborRefreshCost
			desc.BytesPerItem *= cfg.NeighborRefreshCost
		}
		dur := rc.dev.Execute(desc)
		rc.samp.Poll()
		return dur
	}
	runKernels := func() { durs = world.Execute(kernelPhase) }
	// Post-kernel phase on one rank: barrier wait + communication +
	// host-side serial work, during which the GPU idles.
	idlePhase := func(r int) float64 {
		rc := ranks[r]
		rc.dev.Idle(waits[r] + tail)
		rc.samp.Poll()
		return 0
	}

	for step := startStep; step < cfg.Steps; step++ {
		curStep = step
		stepJ := 0.0
		// Verlet-skin modeling: refresh-only FindNeighbors steps run the
		// same phase at a fraction of the rebuild's work.
		nbrRefresh = cfg.NeighborRebuildEvery > 1 && step%cfg.NeighborRebuildEvery != 0
		if !nbrRefresh {
			rt.neighborRebuild()
		}
		re.neighborStep(world.MaxClock(), step, nbrRefresh)
		for slot := range phases {
			fn = phases[slot].fn
			commS, hostS := phases[slot].commS, phases[slot].hostS

			phaseStart := world.MaxClock()
			clear(ran)
			telemetry.DoLabeled(cfg.ProfileLabels, "pass", fn.Name, runKernels)
			waits = world.Synchronize(durs)
			rt.phaseWaits(waits)

			tail = commS + hostS
			world.Execute(idlePhase)
			for r := range ranks {
				world.Advance(r, tail)
			}

			phaseEnd := world.MaxClock()
			phaseS := phaseEnd - phaseStart
			rt.functionTime(fn.Name, phaseS)

			// Host energy for the phase, advanced and read once per node:
			// the ranks of a node all get the same share of the same deltas.
			for i, n := range system.Nodes {
				cpuJ, memJ, auxJ := n.AdvanceHost(phaseS, fn.CPUUtil, fn.MemUtil)
				sharers := float64(rpn)
				hostShare[i].cpuJ, hostShare[i].memJ, hostShare[i].otherJ = cpuJ/sharers, memJ/sharers, auxJ/sharers
			}
			smp.PollNodes()

			// Per-rank attribution: GPU energy from the rank's own sensor,
			// host energy as the rank's share of its node's delta.
			for r, rc := range ranks {
				if !ran[r] {
					continue // dead rank: no kernel, no sensor window
				}
				end := rc.sensor.Read()
				gpuJ := pmt.Joules(gpuStart[r], end)
				if math.IsNaN(gpuJ) {
					// Faulted sensor window: the in-band reading is unusable,
					// so the phase's GPU energy is dropped from the profile
					// (meter-based report totals are unaffected) instead of
					// poisoning downstream aggregates.
					gpuJ = 0
				}
				host := hostShare[r/rpn]
				cpuJ, memJ, otherJ := host.cpuJ, host.memJ, host.otherJ
				rc.profile.RecordAt(slot, fn.Name, phaseS, gpuJ, cpuJ, memJ, otherJ, commS)
				if rt != nil {
					rt.functionSpan(r, fn.Name, phaseStart, phaseS, gpuJ, commS)
				}
				stepJ += gpuJ + cpuJ + memJ + otherJ
			}
			rt.phaseTailSpans(fn, phaseEnd, commS, hostS)
		}
		bound := world.MaxClock()
		stepBounds = append(stepBounds, bound)
		if rt != nil {
			rt.stepSpan(step, stepStart, bound, stepJ)
			stepStart = bound
		}
		re.stepDone(bound, step, stepJ)
		if strategyErr != nil {
			return fail(strategyErr)
		}
		// Step-level failure detection: record new rank deaths and let the
		// degradation policy decide whether (and how) the run continues.
		prevFails := 0
		if fs != nil {
			prevFails = len(fs.failures)
		}
		var ferr error
		load, ferr = fs.checkStep(world, step, cfg.Ranks)
		re.rankFailures(fs, prevFails, load)
		if ferr != nil {
			return fail(ferr)
		}
		// Recovery hook, last in the boundary so a step that killed the run
		// is never checkpointed: autosave on cadence, watchdog heartbeat,
		// budget/stop checks. Stop means a final checkpoint is already on
		// disk and the partial result below is the graceful early exit.
		if rcv := cfg.Recovery; rcv != nil && rcv.Controller != nil {
			d := rcv.Controller.StepDone(step, bound-t0, systemEnergy(system),
				recovery.Meta{Step: step + 1, TimeS: bound}, snapshotAt(step+1))
			if d == recovery.Stop {
				stopped = true
				break
			}
		}
	}

	wall := world.MaxClock() - t0
	report := &instr.Report{
		Simulation: string(cfg.Sim),
		System:     cfg.System.Name,
		WallTimeS:  wall,
		Strategy:   ranks[0].strategy.Name(),
	}
	for _, rc := range ranks {
		report.Ranks = append(report.Ranks, rc.profile)
	}
	// Loop-only device-class totals: setup energy is carved out so the
	// report reflects what PMT instrumentation measured. The setup phase is
	// GPU-idle, so its energy is attributed to the classes by the setup
	// power mix.
	for _, n := range system.Nodes {
		report.GPUEnergyJ += n.GPUEnergyJ()
		report.CPUEnergyJ += n.CPUEnergyJ()
		report.MemEnergyJ += n.Mem.Meter.EnergyJ()
		report.OtherEnergyJ += n.Aux.EnergyJ()
	}
	report.GPUEnergyJ -= setup.GPU
	report.CPUEnergyJ -= setup.CPU
	report.MemEnergyJ -= setup.Mem
	report.OtherEnergyJ -= setup.Other
	report.TotalEnergyJ = report.GPUEnergyJ + report.CPUEnergyJ + report.MemEnergyJ + report.OtherEnergyJ
	rt.finish(wall, &reportTotals{
		gpuJ: report.GPUEnergyJ, cpuJ: report.CPUEnergyJ,
		memJ: report.MemEnergyJ, otherJ: report.OtherEnergyJ,
	})

	// Final sampler flush, then the span join: sampled series against
	// kernel/function spans, read where the tracer holds them, gated by the
	// documented tolerance contract at the sampler's own rate.
	var attribution *attrib.Attribution
	if smp != nil {
		smp.PollAll()
		if cfg.Tracer != nil {
			attribution = attrib.BuildFromTracer(cfg.Tracer, smp.RankSeries(),
				attrib.Options{RateHz: smp.Config().GPUHz})
			// No silent overflow: a rank ring that wrapped no longer holds
			// the run's start, and the join says so instead of reporting the
			// gap as sampler error.
			var dropped uint64
			for _, st := range smp.Stats() {
				if st.Rank >= 0 {
					dropped += st.Dropped
				}
			}
			attribution.MarkDropped(dropped)
			re.samplerOverflow(world.MaxClock(), dropped)
			report.Attribution = attribution
		}
	}

	re.endRun(world.MaxClock())
	res := &Result{
		Report:          report,
		System:          system,
		WallTimeS:       wall,
		Trace:           trace,
		StepBoundariesS: stepBounds,
		SetupTimeS:      cfg.SetupS,
		SetupEnergyJ:    setup.Total,
		Sampler:         smp,
		Attribution:     attribution,
		Events:          re.summary(),
	}
	if fs != nil {
		res.Failures = fs.failures
		res.Faults = fs.report(smp, cfg.Metrics)
		report.Faults = res.Faults
	}
	if rcv := cfg.Recovery; rcv != nil && rcv.Controller != nil {
		if !stopped {
			// Completion checkpoint: a later resume of a finished run is an
			// instant no-op, and the final state stays auditable on disk.
			rcv.Controller.Final(recovery.Meta{Step: len(stepBounds), TimeS: world.MaxClock()},
				wall, snapshotAt(len(stepBounds)))
		}
		n, last := rcv.Controller.Saves()
		info := &RecoveryInfo{
			Checkpoints:    n,
			LastCheckpoint: last,
			Stopped:        stopped,
			StopCause:      rcv.Controller.StopCause(),
		}
		if rcv.Resume != nil {
			info.Resumed = true
			info.ResumeStep = rcv.Resume.Snapshot.Meta.Step
		}
		res.Recovery = info
	}
	return res, nil
}

// systemEnergy sums all component meters of the allocation.
func systemEnergy(s *cluster.System) float64 {
	total := 0.0
	for _, n := range s.Nodes {
		total += n.TotalEnergyJ()
	}
	return total
}

// sensorFor builds the vendor-appropriate PMT GPU sensor for a device —
// the back-end selection PMT performs at Create() time.
func sensorFor(dev *gpusim.Device) pmt.Sensor {
	return faultedSensorFor(dev, nil)
}

// commTime computes the function's post-kernel communication cost.
func commTime(fn FuncModel, cfg Config, net mpisim.Network) float64 {
	if cfg.Ranks <= 1 {
		// Single-GPU runs still pay a small driver/host sync per collective.
		if fn.Comm != CommNone {
			return 50e-6
		}
		return 0
	}
	n := cfg.ParticlesPerRank
	switch fn.Comm {
	case CommHalo:
		bytes := haloFraction(n, cfg.Ng) * n * fn.CommBytesPerPart * 8
		return net.HaloExchangeS(bytes, cfg.Ranks)
	case CommAllreduce:
		return net.AllreduceS(64, cfg.Ranks)
	case CommDomainSync:
		// Tree-count allgather plus particle migration of ~1% of particles.
		ag := net.AllgatherS(512, cfg.Ranks)
		migr := net.PointToPointS(0.01*n*fn.CommBytesPerPart*8, false)
		return ag + migr
	}
	return 0
}

// haloFraction estimates the fraction of local particles that sit in the
// halo shell: surface-to-volume scaling ~ (ng/N)^(1/3).
func haloFraction(n float64, ng int) float64 {
	if n <= 0 {
		return 0
	}
	f := 4.5 * math.Cbrt(float64(ng)) / math.Cbrt(n)
	if f > 0.3 {
		f = 0.3
	}
	return f
}
