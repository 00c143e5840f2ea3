package core

import "sphenergy/internal/events"

// runEvents wires the decision ledger into a run. Like runTelemetry, a nil
// *runEvents means the ledger is off and every hook below is a nil-check
// no-op, preserving the §III-B non-perturbation property: a run with the
// ledger enabled is bit-identical to one without.
//
// All event timestamps use the absolute virtual clock (world/device time),
// the same timebase as trace spans and sampler series, so ledger rows join
// directly against traceanalysis and attrib output. The world steps the
// ranks one after another on the run's goroutine (package mpisim), so every
// hook emits as it is raised and the ledger's order is the execution order.
type runEvents struct {
	led    *events.Ledger
	stepFn func() int // the run loop's current step, -1 before it
	// lastLoad tracks the survivor load multiplier so degradation events
	// fire on transitions only.
	lastLoad float64
}

// newRunEvents builds the run's ledger wiring, or nil when Config.Events
// is unset. step reads the run loop's current step; load is the survivor
// load multiplier the run is at.
func newRunEvents(cfg Config, step func() int, load float64) *runEvents {
	if cfg.Events == nil {
		return nil
	}
	return &runEvents{led: cfg.Events, stepFn: step, lastLoad: load}
}

// step reads the run loop's current step (-1 before the loop).
func (re *runEvents) step() int { return re.stepFn() }

func (re *runEvents) beginRun(cfg Config, strategy string) {
	if re == nil {
		return
	}
	re.led.BeginRun(string(cfg.Sim), strategy, cfg.Steps)
}

func (re *runEvents) stepDone(timeS float64, step int, stepJ float64) {
	if re == nil {
		return
	}
	re.led.StepDone(timeS, step, stepJ)
}

func (re *runEvents) endRun(timeS float64) {
	if re == nil {
		return
	}
	re.led.EndRun(timeS)
}

// decision records a clock a strategy set before a function. Elided sets
// never reach it: the ledger records clock transitions, not every Apply. A
// set that did not reach the device is marked events.NotApplied, with the
// clock the device ran as its applied clock.
func (re *runEvents) decision(rank int, function string, nowS float64, requestedMHz, appliedMHz int, reached bool) {
	if re == nil {
		return
	}
	detail := ""
	if !reached {
		detail = events.NotApplied
	}
	re.led.Emit(events.Event{
		TimeS: nowS, Step: re.step(), Rank: rank,
		Type: events.FreqDecision, Subject: function, Detail: detail,
		RequestedMHz: requestedMHz, AppliedMHz: appliedMHz,
	})
}

// samplerTransition bridges a sampler degradation transition into the
// ledger.
func (re *runEvents) samplerTransition(name string, rank int, degraded bool, detail string) {
	if re == nil {
		return
	}
	typ := events.SamplerRecovered
	if degraded {
		typ = events.SamplerDegraded
	}
	re.led.Emit(events.Event{
		Step: re.step(), Rank: rank, Type: typ,
		Subject: name, Detail: detail,
	})
}

// budgetStop records the budget, named by cause, that ended the run after
// step: wallS is the loop's virtual wall clock, energyJ the allocation's
// total energy.
func (re *runEvents) budgetStop(wallS float64, step int, cause string, energyJ float64) {
	if re == nil {
		return
	}
	re.led.Emit(events.Event{
		Type: events.BudgetStop, TimeS: wallS, Step: step, Rank: -1,
		Detail: cause, Value: energyJ,
	})
}

// samplerOverflow records that the span join found dropped rank samples
// and failed the attribution for it; nothing is emitted for a clean join.
func (re *runEvents) samplerOverflow(timeS float64, dropped uint64) {
	if re == nil || dropped == 0 {
		return
	}
	re.led.Emit(events.Event{
		TimeS: timeS, Step: -1, Rank: -1, Type: events.SamplerOverflow,
		Subject: "rank-channels", Detail: "ring overflow: attribution failed", Value: float64(dropped),
	})
}

// rankFailures records rank deaths newly observed by checkStep (from is
// the failure count before the check) and the degradation policy's load
// transition when redistribution changed the survivor multiplier.
func (re *runEvents) rankFailures(fs *faultState, from int, load float64) {
	if re == nil || fs == nil {
		return
	}
	for _, f := range fs.failures[from:] {
		re.led.Emit(events.Event{
			TimeS: f.TimeS, Step: f.Step, Rank: f.Rank,
			Type: events.RankFail, Detail: fs.policy,
		})
	}
	if load != re.lastLoad {
		re.lastLoad = load
		re.led.Emit(events.Event{
			Step: re.step(), Rank: -1, Type: events.Degradation,
			Value: load, Detail: fs.policy,
		})
	}
}
