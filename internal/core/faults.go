package core

import (
	"fmt"

	"sphenergy/internal/cluster"
	"sphenergy/internal/faults"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/mpisim"
	"sphenergy/internal/nvml"
	"sphenergy/internal/pmcounters"
	"sphenergy/internal/pmt"
	"sphenergy/internal/rsmi"
	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

// Degradation policies for injected rank failures (Config.Degradation).
const (
	// DegradeAbort stops the run at the first rank failure (the MPI
	// default: one dead rank aborts the job). The runner still resets
	// clocks and flushes the sampler before returning the error.
	DegradeAbort = "abort"
	// DegradeDropRank continues without the dead rank; its particles are
	// lost from the simulation but the measurement pipeline stays sound.
	DegradeDropRank = "drop-rank"
	// DegradeRedistribute continues with the dead rank's load spread over
	// the survivors (particles-per-rank scaled by ranks/alive).
	DegradeRedistribute = "redistribute"
)

// validPolicy reports whether p names a degradation policy ("" = abort).
func validPolicy(p string) bool {
	switch p {
	case "", DegradeAbort, DegradeDropRank, DegradeRedistribute:
		return true
	}
	return false
}

// RankFailure aliases the fault framework's rank-death record.
type RankFailure = faults.RankFailure

// FaultReport aliases faults.Report, the run-level fault/resilience
// summary attached to Result and instr.Report.
type FaultReport = faults.Report

// faultState wires one run's fault plan: the per-target injectors (one
// deterministic stream per rank sensor, rank clock path, rank execution,
// and node sensor), the resilient setters wrapped around each rank's
// clock control, and the failures the degradation policy has handled.
type faultState struct {
	plan      *faults.Plan
	policy    string
	sensorInj []*faults.Injector
	clockInj  []*faults.Injector
	rankInj   []*faults.Injector
	nodeInj   []*faults.Injector
	resilient []*freqctl.ResilientSetter
	failures  []RankFailure
}

// newFaultState builds the injector sets for a run, or nil when the
// config has no active plan — the healthy path stays exactly the seed
// behaviour (no resilient wrapper, no hooks, no per-phase evaluation).
func newFaultState(cfg Config, nodes int) *faultState {
	if !cfg.Faults.Active() {
		return nil
	}
	fs := &faultState{
		plan:   cfg.Faults,
		policy: cfg.Degradation,
	}
	if fs.policy == "" {
		fs.policy = DegradeAbort
	}
	for r := 0; r < cfg.Ranks; r++ {
		fs.sensorInj = append(fs.sensorInj, cfg.Faults.Injector(faults.TargetSensor, r))
		fs.clockInj = append(fs.clockInj, cfg.Faults.Injector(faults.TargetClock, r))
		fs.rankInj = append(fs.rankInj, cfg.Faults.Injector(faults.TargetRank, r))
	}
	for n := 0; n < nodes; n++ {
		fs.nodeInj = append(fs.nodeInj, cfg.Faults.Injector(faults.TargetNodeSensor, n))
	}
	return fs
}

// sensorHook returns the fault hook for rank r's GPU sensor (nil without
// a plan), clocked by the rank's own device.
func (fs *faultState) sensorHook(r int, dev *gpusim.Device) func(string, int) (int, error) {
	if fs == nil {
		return nil
	}
	return fs.sensorInj[r].SensorHook(dev.Now)
}

// wireRank installs the clock-path fault hook underneath rank r's setter
// and wraps it in the resilience layer. Must run before telemetry
// instrumentation so the instrumented view sees the resilient semantics.
func (fs *faultState) wireRank(rc *rankCtx, r int, cfg Config) {
	if fs == nil {
		return
	}
	if h := fs.clockInj[r].ClockHook(rc.dev.Now); h != nil {
		freqctl.AttachFaultHook(rc.setter, h)
	}
	rcfg := cfg.Resilience
	if rcfg.Seed == 0 {
		rcfg.Seed = cfg.Seed ^ (uint64(r+1) * 0x9E3779B97F4A7C15)
	}
	rs := freqctl.NewResilientSetter(rc.setter, rcfg)
	fs.resilient = append(fs.resilient, rs)
	rc.setter = rs
}

// nodeSensor builds node i's pm_counters sensor, faulted when a plan is
// active. The node stream is clocked by the job's global virtual time.
func (fs *faultState) nodeSensor(i int, node *cluster.Node, now func() float64) pmt.Sensor {
	pc := pmcounters.New(node)
	if fs != nil {
		if h := fs.nodeInj[i].SensorHook(now); h != nil {
			pc.SetFaultHook(h)
		}
	}
	return pmt.NewCrayOn(pc, node, pmt.CrayNode, 0)
}

// wireWorld installs the straggler/crash hook on the MPI world. step
// reads the run loop's current step.
func (fs *faultState) wireWorld(world *mpisim.World, ranks []*rankCtx, step func() int) {
	if fs == nil {
		return
	}
	world.SetRankFaultHook(func(r int, nowS float64) mpisim.RankFault {
		d := fs.rankInj[r].Evaluate(nowS, step(), faults.Straggler, faults.RankCrash)
		switch d.Kind {
		case faults.Straggler:
			return mpisim.RankFault{SlowFactor: d.Rule.Factor}
		case faults.RankCrash:
			return mpisim.RankFault{Crash: true}
		}
		return mpisim.RankFault{}
	})
	// A straggling rank's GPU idles through the stall, keeping the device
	// clock aligned with the rank clock.
	world.SetStragglerObserver(func(r int, extraS float64) {
		ranks[r].dev.Idle(extraS)
	})
}

// checkStep performs the step-level failure detection: new rank deaths
// are recorded with the step, and the degradation policy decides whether
// the run continues. It returns the survivor load multiplier (>1 under
// redistribution) and a non-nil error when the run must stop.
func (fs *faultState) checkStep(world *mpisim.World, step, totalRanks int) (float64, error) {
	if fs == nil {
		return 1, nil
	}
	fails := world.Failures()
	for _, f := range fails[len(fs.failures):] {
		fs.failures = append(fs.failures, RankFailure{Rank: f.Rank, TimeS: f.TimeS, Step: step})
	}
	alive := world.AliveCount()
	if alive == 0 {
		return 1, fmt.Errorf("core: all %d ranks failed by step %d", totalRanks, step)
	}
	if len(fs.failures) > 0 && fs.policy == DegradeAbort {
		f := fs.failures[len(fs.failures)-1]
		return 1, fmt.Errorf("core: rank %d failed at step %d (t=%.3f s); degradation policy %q aborts the run",
			f.Rank, f.Step, f.TimeS, DegradeAbort)
	}
	if fs.policy == DegradeRedistribute {
		return float64(totalRanks) / float64(alive), nil
	}
	return 1, nil
}

// report assembles the run's FaultReport and exports the fault counters
// into the metrics registry.
func (fs *faultState) report(smp *sampler.Sampler, reg *telemetry.Registry) *FaultReport {
	if fs == nil {
		return nil
	}
	injectors := fs.injectors()
	rep := &FaultReport{
		Plan:        fs.plan.Name,
		Degradation: fs.policy,
		Injected:    faults.CollectCounts(injectors...),
		Failures:    fs.failures,
	}
	for _, rs := range fs.resilient {
		st := rs.Stats()
		rep.Retries += st.Retries
		rep.Absorbed += st.Absorbed
		rep.Clamped += st.Clamped
		rep.ShortCircuits += st.ShortCircuits
		rep.BreakerTrips += st.BreakerTrips
		if st.Broken {
			rep.BrokenRanks++
		}
	}
	if smp != nil {
		rep.SamplerDegraded = smp.Degraded()
	}
	for _, ic := range rep.Injected {
		reg.Counter("faults_injected_total", "fault injections by target stream and kind",
			telemetry.L("stream", ic.Stream), telemetry.L("kind", string(ic.Kind))).Add(float64(ic.Count))
	}
	reg.Counter("freqctl_retries_total", "clock-control retries across all ranks").Add(float64(rep.Retries))
	reg.Counter("freqctl_absorbed_total", "clock-control failures absorbed after retry exhaustion").Add(float64(rep.Absorbed))
	reg.Counter("freqctl_clamped_total", "clock sets whose achieved clock differed from the request").Add(float64(rep.Clamped))
	reg.Counter("freqctl_breaker_trips_total", "circuit-breaker latches across all ranks").Add(float64(rep.BreakerTrips))
	reg.Counter("ranks_failed_total", "injected rank deaths").Add(float64(len(rep.Failures)))
	return rep
}

// faultedSensorFor builds the rank GPU sensor with the fault hook
// installed on its vendor library (the same injection point a real
// deployment faces: the read syscall, not the PMT wrapper).
func faultedSensorFor(dev *gpusim.Device, hook func(string, int) (int, error)) pmt.Sensor {
	switch dev.Spec().Vendor {
	case gpusim.AMD:
		lib, err := rsmi.New([]*gpusim.Device{dev})
		if err == nil {
			if hook != nil {
				lib.SetFaultHook(hook)
			}
			return pmt.NewRSMI(lib, 0)
		}
	default:
		lib, err := nvml.New([]*gpusim.Device{dev})
		if err == nil && lib.Init() == nil {
			if hook != nil {
				lib.SetFaultHook(hook)
			}
			if h, err := lib.DeviceGetHandleByIndex(0); err == nil {
				return pmt.NewNVML(h)
			}
		}
	}
	return pmt.Dummy{}
}
