package core

import (
	"sphenergy/internal/events"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/sampler"
)

// runEvents wires the decision ledger into a run. Like runTelemetry, a nil
// *runEvents means the ledger is off and every hook below is a nil-check
// no-op, preserving the §III-B non-perturbation property: a run with the
// ledger enabled is bit-identical to one without.
//
// All event timestamps use the absolute virtual clock (world/device time),
// the same timebase as trace spans and sampler series, so ledger rows join
// directly against traceanalysis and attrib output.
type runEvents struct {
	led    *events.Ledger
	stepFn func() int // coordinator's current step; nil before the loop
	// lastLoad tracks the survivor load multiplier so degradation events
	// fire on transitions only.
	lastLoad float64
	// bufs stages the events a rank's phases raise, per rank, so the hot
	// path never touches the ledger mutex: a rank's phase appends to the
	// rank's buffer and the run loop drains all buffers at step boundaries
	// in rank order. That fixes the ledger's event sequence as rank-major
	// within a step, whatever order the phases raised them in.
	bufs []*rankEvents
}

// rankEvents is one rank's staging buffer; allocated separately per rank so
// two ranks' append bookkeeping never shares a cache line.
type rankEvents struct {
	evs []events.Event
}

// newRunEvents builds the run's ledger wiring, or nil when Config.Events
// is unset.
func newRunEvents(cfg Config) *runEvents {
	if cfg.Events == nil {
		return nil
	}
	re := &runEvents{led: cfg.Events, lastLoad: 1, bufs: make([]*rankEvents, cfg.Ranks)}
	for r := range re.bufs {
		re.bufs[r] = &rankEvents{}
	}
	return re
}

// stage appends an event raised on behalf of a rank — inside one of its
// phases, or around the loop (setup, reset, sampler PollAll) — to the
// rank's buffer.
func (re *runEvents) stage(rank int, ev events.Event) {
	rb := re.bufs[rank]
	rb.evs = append(rb.evs, ev)
}

// flushRanks drains every rank's staged events into the ledger in rank
// order, between phases. FreqDecision events route through the ledger's
// prediction-attaching emit.
func (re *runEvents) flushRanks() {
	if re == nil {
		return
	}
	for _, rb := range re.bufs {
		for _, ev := range rb.evs {
			if ev.Type == events.FreqDecision {
				re.led.FreqDecision(ev.TimeS, ev.Step, ev.Rank, ev.Subject,
					ev.RequestedMHz, ev.AppliedMHz)
			} else {
				re.led.Emit(ev)
			}
		}
		rb.evs = rb.evs[:0]
	}
}

// step reads the run loop's current step (-1 outside the loop).
func (re *runEvents) step() int {
	if re == nil || re.stepFn == nil {
		return -1
	}
	return re.stepFn()
}

// trackSteps installs the run loop's current-step reader.
func (re *runEvents) trackSteps(fn func() int) {
	if re == nil {
		return
	}
	re.stepFn = fn
}

func (re *runEvents) beginRun(cfg Config, strategy string) {
	if re == nil {
		return
	}
	re.led.BeginRun(string(cfg.Sim), cfg.System.Name, strategy, cfg.Ranks, cfg.Steps)
}

func (re *runEvents) stepDone(timeS float64, step int, stepJ float64) {
	if re == nil {
		return
	}
	re.flushRanks()
	re.led.StepDone(timeS, step, stepJ)
}

func (re *runEvents) endRun(timeS float64) {
	if re == nil {
		return
	}
	re.flushRanks()
	re.led.EndRun(timeS)
}

func (re *runEvents) summary() *events.Summary {
	if re == nil {
		return nil
	}
	return re.led.Summary()
}

// instrumentRank hooks one rank's frequency-control path into the ledger:
// the strategy is wrapped in a freqctl.Traced whose sink records applied
// clock changes (with the tuner's prediction attached by the ledger), and
// the resilient setter's event stream — retries, absorbs, clamps, breaker
// trips — is forwarded when fault wiring installed one. Must run after
// fs.wireRank (so the resilient setter exists to hook) and composes with
// rt.instrumentRank: the two Traced layers nest, each capturing the same
// Apply through its own capture setter.
func (re *runEvents) instrumentRank(rc *rankCtx, rank int) {
	if re == nil {
		return
	}
	if rs, ok := rc.setter.(*freqctl.ResilientSetter); ok {
		re.hookResilient(rs, rank, rc.dev)
	}
	rc.strategy = &freqctl.Traced{
		Inner: rc.strategy,
		Sink:  &ledgerDecisionSink{re: re, rank: rank, dev: rc.dev},
	}
}

// hookResilient forwards the resilient setter's actions as freq-* events.
// OnEvent fires under the setter's mutex; the ledger mutex is a leaf, so
// the nesting cannot deadlock. Resilience
// events are fault-path only, so the error formatting never runs on the
// healthy steady state.
func (re *runEvents) hookResilient(rs *freqctl.ResilientSetter, rank int, dev *gpusim.Device) {
	rs.OnEvent = func(ev freqctl.ResilientEvent) {
		var typ events.Type
		switch ev.Kind {
		case "retry":
			typ = events.FreqRetry
		case "absorb":
			typ = events.FreqAbsorb
		case "clamp":
			typ = events.FreqClamp
		case "breaker-trip":
			typ = events.FreqBreakerTrip
		case "short-circuit":
			typ = events.FreqShortCircuit
		default:
			return
		}
		errText := ""
		if ev.Err != nil {
			errText = ev.Err.Error()
		}
		re.stage(rank, events.Event{
			TimeS: dev.Now(), Step: re.step(), Rank: rank, Type: typ,
			Subject: ev.Op, RequestedMHz: ev.MHz, Err: errText,
		})
	}
}

// ledgerDecisionSink records applied frequency decisions into the ledger.
// One sink serves one rank (the Traced contract).
type ledgerDecisionSink struct {
	re   *runEvents
	rank int
	dev  *gpusim.Device
}

// StrategyDecision implements freqctl.DecisionSink. Elided switches
// (requestedMHz < 0) are skipped, mirroring the tracer's sink: the ledger
// records clock transitions, not every Apply.
func (s *ledgerDecisionSink) StrategyDecision(function string, requestedMHz, appliedMHz int) {
	if requestedMHz < 0 {
		return
	}
	s.re.stage(s.rank, events.Event{
		TimeS: s.dev.Now(), Step: s.re.step(), Rank: s.rank,
		Type: events.FreqDecision, Subject: function,
		RequestedMHz: requestedMHz, AppliedMHz: appliedMHz,
	})
}

// samplerSink bridges sampler degradation transitions into the ledger (nil
// when the ledger is off, which the sampler treats as no sink).
func (re *runEvents) samplerSink() sampler.TransitionFunc {
	if re == nil {
		return nil
	}
	return func(name string, rank int, degraded bool, detail string) {
		typ := events.SamplerRecovered
		if degraded {
			typ = events.SamplerDegraded
		}
		ev := events.Event{
			Step: re.step(), Rank: rank, Type: typ,
			Subject: name, Detail: detail,
		}
		// Rank channels' transitions are staged like any rank event; node
		// channels (rank -1) poll between phases and emit directly.
		if rank >= 0 && rank < len(re.bufs) {
			re.stage(rank, ev)
			return
		}
		re.led.Emit(ev)
	}
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

// neighborStep records the step's FindNeighbors trigger: a full candidate
// rebuild or a Verlet-skin refresh (Config.NeighborRebuildEvery).
func (re *runEvents) neighborStep(timeS float64, step int, refresh bool) {
	if re == nil {
		return
	}
	typ, detail := events.NbrRebuild, "cadence"
	if refresh {
		typ, detail = events.NbrRefresh, "skin-reuse"
	}
	re.led.Emit(events.Event{TimeS: timeS, Step: step, Rank: -1, Type: typ, Detail: detail})
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
