package core

import (
	"errors"
	"fmt"
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
	// ClockSink, when non-nil, receives rank 0's device clock/power points
	// as the run makes them; the run keeps none. Its two callers: Fig. 9
	// keeps the plotted points and folds its per-kernel clocks, and
	// `sphexa -out` passes ClockCounters(Tracer), the bundle's counter track.
	ClockSink gpusim.PointSink
	// SetupS simulates the job-setup phase (launch, allocation, moving
	// simulation data to GPU memory) that precedes the time-stepping loop.
	// Slurm's energy accounting covers it; PMT instrumentation does not —
	// the gap Fig. 3 quantifies. 0 disables it.
	SetupS float64
	// Tracer, when non-nil, receives the run's span timeline — steps,
	// instrumented functions, kernel launches, frequency changes, MPI
	// waits — exportable as Chrome trace_event JSON. Nil disables span
	// recording at the cost of one nil check per hook.
	Tracer *telemetry.Tracer
	// Metrics selects nothing: no part of a run records into it. It stays
	// only because the repository's benchmark sets it and times its
	// (empty) WriteFile; it goes when the benchmark drops those lines.
	Metrics *telemetry.Registry
	// Sampling, when enabled, runs the async power sampler during the job:
	// every rank's GPU sensor at Sampling.GPUHz plus one pm_counters node
	// sensor per node at Sampling.NodeHz. With a Tracer present, the
	// sampled series are joined against the kernel/function spans into
	// Result.Attribution.
	Sampling sampler.Config
	// Faults, when non-nil and active, injects the plan's fault rules into
	// the run: sensor-read faults on every rank's GPU sensor and every
	// node's pm_counters view, clock-control faults on every rank's setter
	// (which is then wrapped in a freqctl.ResilientSetter seeded per rank
	// from Seed), and straggler/crash faults on rank execution. Nil keeps
	// the healthy path byte-identical to an unfaulted run.
	Faults *faults.Plan
	// Degradation selects the rank-failure policy: DegradeAbort (default),
	// DegradeDropRank or DegradeRedistribute. Set without an active Faults
	// plan, it fails Validate: no rank could fail.
	Degradation string
	// ProfileLabels attaches a pprof label ("pass" = function name) to the
	// run's goroutine around each pipeline phase, so CPU-profile samples —
	// the ranks' kernel work included, which steps on that goroutine — group
	// per pass in `go tool pprof -tags`. Off by default:
	// pprof.Do allocates per call, which the hot loop should not pay unless
	// a profile is actually being taken.
	ProfileLabels bool
	// Events, when non-nil, receives the run's decision ledger: frequency
	// requests and outcomes per rank, resilient-setter actions, sampler
	// degradation transitions, rank failures, and step/run boundary
	// records, after whatever the ledger already holds (a tuner sweep).
	// Nil disables the ledger at the cost of one nil check per hook; an
	// enabled ledger never perturbs the simulation (see internal/events).
	Events *events.Ledger
	// WalltimeBudgetS, when positive, stops the run at the first step
	// boundary at which the loop's virtual wall clock has reached it: Run
	// returns the result of the steps completed with ErrWalltimeBudget, and
	// the ledger gets a budget-stop row. 0 means unlimited.
	WalltimeBudgetS float64
	// EnergyBudgetJ likewise stops the run, with ErrEnergyBudget, once the
	// allocation's total energy (the setup phase's included) has reached
	// it. 0 means unlimited.
	EnergyBudgetJ float64
	// Stop, once closed, stops the run at its next step boundary, after
	// the budgets: Run returns the result of the steps completed with
	// ErrInterrupted. A stop closed before Run starts ends the run at its
	// first boundary. It is the one part of a run another goroutine may
	// touch (sphexa closes it on a signal); everything else the run builds
	// belongs to the goroutine that calls Run. Nil never stops.
	Stop <-chan struct{}
}

// The stop causes. Run returns one of them, beside a result that covers
// the steps completed, when a budget or Config.Stop ended the run at a step
// boundary; a budget's text is its budget-stop row's detail.
var (
	ErrWalltimeBudget = errors.New("budget-walltime")
	ErrEnergyBudget   = errors.New("budget-energy")
	ErrInterrupted    = errors.New("interrupted")
)

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
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	if c.Ranks < 1 {
		return fmt.Errorf("core: need at least 1 rank, got %d", c.Ranks)
	}
	if !(c.ParticlesPerRank > 0) { // NaN too
		return fmt.Errorf("core: particles per rank must be positive, got %g", c.ParticlesPerRank)
	}
	if c.Steps < 0 {
		return fmt.Errorf("core: negative step count %d", c.Steps)
	}
	if c.Ng < 0 {
		return fmt.Errorf("core: negative neighbor count %d", c.Ng)
	}
	switch c.Sim {
	case Turbulence, Evrard:
		if len(c.CustomPipeline) > 0 {
			return fmt.Errorf("core: a CustomPipeline needs Sim %q, not %q: the run would ignore it", Custom, c.Sim)
		}
	case Custom:
		if len(c.CustomPipeline) == 0 {
			return fmt.Errorf("core: Custom simulation requires a CustomPipeline")
		}
		for _, fn := range c.CustomPipeline {
			if !(fn.HostS >= 0) || math.IsInf(fn.HostS, 1) {
				return fmt.Errorf("core: %s: HostS = %v, want a finite time >= 0", fn.Name, fn.HostS)
			}
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
	for _, hz := range []float64{c.Sampling.GPUHz, c.Sampling.NodeHz} {
		if !(hz >= 0) || math.IsInf(hz, 1) {
			return fmt.Errorf("core: sampling rate %v Hz, want a finite rate >= 0", hz)
		}
	}
	for _, b := range []struct {
		name string
		v    float64
	}{{"WalltimeBudgetS", c.WalltimeBudgetS}, {"EnergyBudgetJ", c.EnergyBudgetJ}} {
		if !(b.v >= 0) { // NaN too
			return fmt.Errorf("core: %s = %v, want a value >= 0 (0 = unlimited)", b.name, b.v)
		}
	}
	if !validPolicy(c.Degradation) {
		return fmt.Errorf("core: unknown degradation policy %q (want %s, %s or %s)",
			c.Degradation, DegradeAbort, DegradeDropRank, DegradeRedistribute)
	}
	if c.Degradation != "" && !c.Faults.Active() {
		return fmt.Errorf("core: degradation policy %q needs an active fault plan: without one no rank fails", c.Degradation)
	}
	return nil
}

// particleBytes is the device memory footprint per particle (SoA fields),
// used to enforce the paper's memory-capacity constraint (§IV-C: miniHPC's
// 40 GB forced smaller runs, at most 450³ ≈ 91 M particles).
const particleBytes = 280

// jitterSpread is the relative per-function load imbalance between ranks.
const jitterSpread = 0.015

// Result is the outcome of a run.
type Result struct {
	Report *instr.Report
	System *cluster.System
	// WallTimeS is the time-to-solution of the time-stepping loop.
	WallTimeS float64
	// SetupEnergyJ covers the pre-loop job phase (Config.SetupS); only
	// Slurm accounting sees it (Report covers the instrumented loop only).
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
	// Faults summarizes injections, rank deaths and resilience actions;
	// nil when no plan was configured.
	Faults *FaultReport
}

// EnergyJ returns total allocation energy.
func (r *Result) EnergyJ() float64 { return r.Report.TotalEnergyJ }

// GPUEnergyJ returns total GPU energy.
func (r *Result) GPUEnergyJ() float64 { return r.Report.GPUEnergyJ }

// EDP returns the allocation-level energy-delay product.
func (r *Result) EDP() float64 { return r.Report.TotalEnergyJ * r.WallTimeS }

// GPUEDP returns the GPU-energy EDP, the per-GPU metric of Figs. 6-8.
func (r *Result) GPUEDP() float64 { return r.Report.GPUEnergyJ * r.WallTimeS }

// phase is one pipeline function as the step loop sees it: its model, the
// communication that follows its kernels on every step and its span
// identities in the run's trace.
type phase struct {
	fn    *FuncModel
	kern  gpusim.KernelDesc // fn's kernel; a rank sets only its Items
	commS float64           // post-kernel communication
	spans phaseSpans
}

// rankCtx is the per-rank execution context.
type rankCtx struct {
	dev      *gpusim.Device
	setter   freqctl.Setter
	strategy freqctl.Strategy
	sensor   pmt.Sensor
	profile  *instr.RankProfile
	// tap observes the rank's clock sets when the ledger is on (nil
	// otherwise); setter is then the tap.
	tap *clockTap
	// samp is the rank's async sampling channel (nil when sampling is off);
	// polled inside the rank's phases at kernel and idle boundaries.
	samp *sampler.Channel
}

// Run executes the instrumented time-stepping loop. A budget or a stop that
// ends the run early returns ErrWalltimeBudget, ErrEnergyBudget or
// ErrInterrupted with the complete result of the steps before it; any other
// error comes with a partial result that holds the system, the sampler and
// the fault report only.
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

	fs := newFaultState(cfg, len(system.Nodes))

	ranks := make([]*rankCtx, cfg.Ranks)
	for r := 0; r < cfg.Ranks; r++ {
		_, dev, err := system.DeviceForRank(r)
		if err != nil {
			return nil, err
		}
		rc := &rankCtx{
			dev:      dev,
			setter:   freqctl.DeviceSetter{Dev: dev},
			strategy: cfg.NewStrategy(),
			sensor:   pmt.NewGPU(dev),
			profile:  instr.NewRankProfile(r),
		}
		fs.wireRank(rc, r)
		ranks[r] = rc
	}
	strategyName := ranks[0].strategy.Name()

	ranks[0].dev.SetPointSink(cfg.ClockSink)

	rt := newRunTelemetry(cfg)
	curStep, load := -1, 1.0 // the loop's current step (-1 before it) and the survivor load
	re := newRunEvents(cfg, func() int { return curStep }, load)
	if rec := rt.barrierWaits(); rec != nil {
		world.SetRecorder(rec)
	}
	for r, rc := range ranks {
		re.instrumentRank(rc, r)
		rt.instrumentRank(rc, r)
		if re != nil {
			rc.tap = newClockTap(rc.setter)
			rc.setter = rc.tap
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
		if re != nil {
			// Channels take the sink when added.
			smp.SetTransitionSink(re.samplerTransition)
		}
		for r, rc := range ranks {
			rc.samp = smp.AddRank(r, rc.sensor)
			rc.samp.SetClock(rc.dev.Now)
		}
		for i, n := range system.Nodes {
			smp.AddNode(i, fs.nodeSensor(i, n, world.MaxClock))
		}
		smp.PollAll()
	}
	// With a tracer too, the sampled series are joined against the kernel
	// and function spans while the run runs: at each step boundary the join
	// folds the spans whose ticks are in and the rank channels let go of
	// the ticks no waiting span reads. It is gated by the documented
	// tolerance contract at the sampler's own rate.
	var join *attrib.Online
	if smp != nil && cfg.Tracer != nil {
		join = attrib.NewOnline(cfg.Tracer, smp, attrib.Options{RateHz: smp.Config().GPUHz})
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
		res := &Result{System: system, Sampler: smp}
		if fs != nil {
			res.Faults = fs.report(smp)
		}
		return res, err
	}

	// Job setup phase: launch, allocation, host→device transfer. GPUs are
	// mostly idle (the paper's §IV-A observation that setup energy is
	// limited because the GPUs idle through it); the host is busy staging.
	var setup struct{ GPU, CPU, Mem, Other, Total float64 }
	if cfg.SetupS > 0 {
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
			ref := rt.tr.Intern("phase", "job-setup", "energy_j")
			rt.tr.CompleteRef(telemetry.GlobalTrack, ref, 0, cfg.SetupS, setup.Total, 0)
		}
		smp.PollAll()
	}

	// Strategy setup (once per rank, before the loop — the paper's
	// instrumentation point at time-stepping start).
	re.beginRun(cfg, strategyName)
	for _, rc := range ranks {
		if err := rc.strategy.Setup(rc.setter); err != nil {
			// Earlier ranks may already hold non-default clocks; fail()
			// resets them all.
			return fail(fmt.Errorf("core: strategy setup: %w", err))
		}
	}

	vendor := cfg.System.GPUSpec.Vendor
	t0 := world.MaxClock()
	// One allocation covers the boundaries of a run of up to 4096 steps;
	// past that they grow by append, with the steps that ran, so a huge
	// step count that a budget or a stop cuts short reserves nothing for it.
	stepBounds := make([]float64, 0, min(cfg.Steps, 1<<12))

	// A strategy failure inside a rank's phase surfaces as a run error at
	// the step boundary; the first one wins.
	var strategyErr error

	// Rank fault injection: the world consults the per-rank injectors at
	// every phase; curStep and load change between phases only.
	fs.wireWorld(world, ranks, func() int { return curStep })

	// The budget or stop that ended the run, nil while none has.
	var stop error

	// Step telemetry reuses bounds the loop computes anyway: the step span
	// runs from the previous step's boundary, and its energy accumulates
	// from the per-rank attribution below — no extra clock or meter reads.
	stepStart := t0

	// What the loop needs of each pipeline function is constant over the
	// run and worked out here, once; a function is then known by its slot.
	phases := make([]phase, len(pipeline))
	for i := range pipeline {
		fn := &pipeline[i]
		phases[i] = phase{fn: fn, kern: fn.Kernel(0, cfg.Ng, vendor), commS: commTime(*fn, cfg, net), spans: rt.phaseSpans(fn)}
	}

	// The phase loop allocates nothing: its per-rank and per-node scratch,
	// and the closures the world steps the ranks through, are built once
	// here and read the loop's current ph/load/waits/tail.
	var (
		ph          *phase
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
		tap := rc.tap
		if tap != nil {
			tap.arm()
		}
		err := rc.strategy.Apply(rc.setter, ph.fn.Name)
		if tap != nil && tap.requested >= 0 {
			// The strategy set a clock before this function, and the ledger
			// sees that decision whether or not the set failed.
			re.decision(r, ph.fn.Name, rc.dev.Now(), tap.requested, tap.applied)
		}
		if err != nil {
			if strategyErr == nil {
				strategyErr = fmt.Errorf("core: strategy apply on rank %d: %w", r, err)
			}
			return 0
		}
		ran[r] = true
		gpuStart[r] = rc.sensor.Read()
		ph.kern.Items = cfg.ParticlesPerRank * load * world.Jitter(r, jitterSpread)
		dur := rc.dev.Launch(&ph.kern)
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

	for step := 0; step < cfg.Steps; step++ {
		curStep = step
		stepJ := 0.0
		for slot := range phases {
			ph = &phases[slot]
			fn := ph.fn
			commS, hostS := ph.commS, fn.HostS

			phaseStart := world.MaxClock()
			clear(ran)
			telemetry.DoLabeled(cfg.ProfileLabels, "pass", fn.Name, runKernels)
			waits = world.Synchronize(durs)

			tail = commS + hostS
			world.Execute(idlePhase)
			for r := range ranks {
				world.Advance(r, tail)
			}

			phaseEnd := world.MaxClock()
			phaseS := phaseEnd - phaseStart

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
				rt.functionSpan(r, &ph.spans, phaseStart, phaseS, gpuJ, commS)
				stepJ += gpuJ + cpuJ + memJ + otherJ
			}
			rt.phaseTailSpans(&ph.spans, phaseEnd, commS, hostS)
		}
		bound := world.MaxClock()
		stepBounds = append(stepBounds, bound)
		rt.stepSpan(step, stepStart, bound, stepJ)
		stepStart = bound
		re.stepDone(bound, step, stepJ)
		join.Advance(bound)
		// Step-level failure detection: record new rank deaths and let the
		// degradation policy decide whether (and how) the run continues.
		failed := strategyErr
		if failed == nil {
			prevFails := 0
			if fs != nil {
				prevFails = len(fs.failures)
			}
			load, failed = fs.checkStep(world, step, cfg.Ranks)
			re.rankFailures(fs, prevFails, load)
		}
		if failed != nil {
			return fail(failed)
		}
		// The budgets and the stop come last in the boundary, so a step
		// that killed the run never ends it as a stop.
		switch {
		case cfg.WalltimeBudgetS > 0 && bound-t0 >= cfg.WalltimeBudgetS:
			stop = ErrWalltimeBudget
		case cfg.EnergyBudgetJ > 0 && system.TotalEnergyJ() >= cfg.EnergyBudgetJ:
			stop = ErrEnergyBudget
		case stopped(cfg.Stop):
			stop = ErrInterrupted
		}
		if stop != nil {
			if stop != ErrInterrupted {
				re.budgetStop(bound-t0, step, stop.Error(), system.TotalEnergyJ())
			}
			break
		}
	}

	wall := world.MaxClock() - t0
	report := &instr.Report{
		Simulation: string(cfg.Sim),
		System:     cfg.System.Name,
		WallTimeS:  wall,
		Strategy:   strategyName,
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

	// Final sampler flush, then the spans still waiting join the series the
	// run ended with.
	var attribution *attrib.Attribution
	if smp != nil {
		smp.PollAll()
		if join != nil {
			attribution = join.Finish()
			// No silent overflow: a rank ring that rotated out ticks a
			// waiting span read no longer holds them, and the join says so
			// instead of reporting the gap as sampler error.
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
		StepBoundariesS: stepBounds,
		SetupEnergyJ:    setup.Total,
		Sampler:         smp,
		Attribution:     attribution,
	}
	if fs != nil {
		res.Faults = fs.report(smp)
		report.Faults = res.Faults
	}
	return res, stop
}

// stopped reports whether c is closed; a nil c never is.
func stopped(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
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
