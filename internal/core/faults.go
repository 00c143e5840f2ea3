package core

import (
	"fmt"
	"slices"

	"sphenergy/internal/cluster"
	"sphenergy/internal/faults"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/mpisim"
	"sphenergy/internal/pmcounters"
	"sphenergy/internal/pmt"
	"sphenergy/internal/sampler"
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
// deterministic stream per rank sensor, rank execution and node sensor;
// each rank's clock holds its own clock-fault stream) and the failures the
// degradation policy has handled.
type faultState struct {
	plan      *faults.Plan
	policy    string
	sensorInj []*faults.Injector
	rankInj   []*faults.Injector
	nodeInj   []*faults.Injector
	failures  []RankFailure
}

// newFaultState builds the injector sets for a run, or nil when the
// config has no active plan — the healthy path stays exactly the seed
// behaviour (no fault wrapper, retry or per-phase evaluation).
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
		fs.rankInj = append(fs.rankInj, cfg.Faults.Injector(faults.TargetRank, r))
	}
	for n := 0; n < nodes; n++ {
		fs.nodeInj = append(fs.nodeInj, cfg.Faults.Injector(faults.TargetNodeSensor, n))
	}
	return fs
}

// wireRank wraps rank r's GPU sensor in its sensor faults.
func (fs *faultState) wireRank(rc *rankCtx, r int) {
	if fs == nil {
		return
	}
	rc.sensor = fs.sensorInj[r].Sensor(rc.sensor, rc.dev.Now)
}

// nodeSensor builds node i's pm_counters sensor, whose collection ticks
// the node's faults miss when a plan is active. The node stream is clocked
// by the job's global virtual time.
func (fs *faultState) nodeSensor(i int, node *cluster.Node, now func() float64) pmt.Sensor {
	pc := pmcounters.New(node)
	if fs != nil {
		pc.SetMissHook(fs.nodeInj[i].MissTick(now))
	}
	return pmt.NewCrayOn(pc, node, pmt.CrayNode, 0)
}

// rankFault ends rank r's share of one of a phase's two world steps, which
// ran dur seconds of step: the rank's injector draws once, at the rank's
// clock at the phase's end. A straggler stretches dur by its factor, the
// GPU idling through the extra time so that the device clock stays with
// the rank clock; a crash kills the rank at the phase's end, so it runs no
// later phase and pulls no later barrier. It returns the phase's duration.
func (fs *faultState) rankFault(world *mpisim.World, dev *gpusim.Device, r, step int, dur float64) float64 {
	if fs == nil {
		return dur
	}
	d := fs.rankInj[r].Evaluate(world.Clock(r)+dur, step, faults.Straggler, faults.RankCrash)
	switch d.Kind {
	case faults.Straggler: // a valid plan's factor is > 1
		extra := dur * (d.Rule.Factor - 1)
		dur += extra
		dev.Idle(extra)
	case faults.RankCrash:
		world.Fail(r, world.Clock(r)+dur)
	}
	return dur
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

// report assembles the run's FaultReport.
func (fs *faultState) report(smp *sampler.Sampler, ranks []*rankCtx) *FaultReport {
	if fs == nil {
		return nil
	}
	injectors := slices.Concat(fs.sensorInj, fs.rankInj, fs.nodeInj)
	rep := &FaultReport{
		Plan:        fs.plan.Name,
		Degradation: fs.policy,
		Failures:    fs.failures,
	}
	for _, rc := range ranks {
		c := rc.clock
		injectors = append(injectors, c.inj)
		rep.Retries += c.retries
		rep.Absorbed += c.absorbed
		rep.Clamped += c.clamped
		rep.ShortCircuits += c.shortCircuits
		rep.BreakerTrips += c.breakerTrips
		if c.broken {
			rep.BrokenRanks++
		}
	}
	rep.Injected = faults.CollectCounts(injectors...)
	if smp != nil {
		rep.SamplerDegraded = smp.Degraded()
	}
	return rep
}
