package core

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"sphenergy/internal/freqctl"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/mpisim"
	"sphenergy/internal/telemetry"
)

// runTelemetry bundles the run's telemetry sinks and pre-registered
// metrics. A nil *runTelemetry means telemetry is off; every hook below
// guards on that, so the uninstrumented path costs one nil check per phase
// — the §III-B non-perturbation property.
type runTelemetry struct {
	tr  *telemetry.Tracer
	reg *telemetry.Registry

	kernelLaunches *telemetry.Counter
	freqSwitches   *telemetry.Counter
	switchLatency  *telemetry.Histogram
	stepsTotal     *telemetry.Counter
	stepTime       *telemetry.Histogram
	stepEnergy     *telemetry.Histogram
	mpiWait        *telemetry.Counter
	nbrRebuilds    *telemetry.Counter

	// fnTime memoizes the per-function phase-latency histograms, labeled by
	// function name and registered lazily on first observation (pipelines
	// are not known until the loop runs). Run-loop only, unsynchronized.
	fnTime map[string]*telemetry.Histogram

	// Interned span identities for the per-phase spans, memoized per call
	// site so the steady-state loop records through SpanRefs only. These
	// maps are touched by the run loop alone.
	fnRefs   map[string]telemetry.SpanRef // fn name → "function" span
	hostRefs map[string]telemetry.SpanRef // fn name → "host:"+name span
	commRefs map[string]telemetry.SpanRef // comm label → "mpi" span

	// curFnName/curFnRef short-circuit fnRefs for the common case: the
	// attribution loop emits one span per rank for the same function, so
	// only the first rank of a phase pays the map lookup.
	curFnName string
	curFnRef  telemetry.SpanRef

	// observers collects the per-rank device observers so step-boundary
	// flushes can fold their per-rank kernel counts into the registry
	// instead of bumping one shared counter per launch.
	observers     []*rankObserver
	kernelFlushed float64
}

// newRunTelemetry wires the tracer and registry for a run, labeling rank
// tracks and registering the metric families up front so hot-path updates
// are pure atomic/shard operations.
func newRunTelemetry(cfg Config) *runTelemetry {
	if cfg.Tracer == nil && cfg.Metrics == nil {
		return nil
	}
	rt := &runTelemetry{tr: cfg.Tracer, reg: cfg.Metrics}
	if rt.tr != nil {
		for r := 0; r < cfg.Ranks; r++ {
			rt.tr.SetTrackName(r, fmt.Sprintf("rank %d", r))
		}
		rt.tr.SetTrackName(telemetry.GlobalTrack, "sim")
		rt.fnRefs = map[string]telemetry.SpanRef{}
		rt.hostRefs = map[string]telemetry.SpanRef{}
		rt.commRefs = map[string]telemetry.SpanRef{}
	}
	rt.kernelLaunches = rt.reg.Counter("kernel_launches_total",
		"GPU kernel batches executed across all ranks")
	rt.freqSwitches = rt.reg.Counter("freq_switches_total",
		"application-clock set operations across all ranks")
	rt.switchLatency = rt.reg.Histogram("freq_switch_latency_s",
		"wall-clock latency of clock-control calls",
		telemetry.ExpBuckets(1e-7, 10, 8))
	rt.stepsTotal = rt.reg.Counter("steps_total", "completed simulation steps")
	rt.stepTime = rt.reg.Histogram("step_time_s",
		"virtual wall time per step", telemetry.ExpBuckets(0.1, 2, 12))
	rt.stepEnergy = rt.reg.Histogram("step_energy_j",
		"allocation energy per step", telemetry.ExpBuckets(1, 10, 9))
	rt.mpiWait = rt.reg.Counter("mpi_wait_s_total",
		"cumulative barrier wait time across all ranks")
	rt.nbrRebuilds = rt.reg.Counter("neighbor_rebuilds_total",
		"steps whose FindNeighbors phase rebuilt the neighbor candidate list")
	if rt.reg != nil {
		rt.fnTime = map[string]*telemetry.Histogram{}
	}
	if every := cfg.NeighborRebuildEvery; every > 1 {
		rt.reg.Gauge("neighbor_rebuild_interval_steps",
			"configured Verlet-skin rebuild cadence (1 = rebuild every step)").Set(float64(every))
	} else {
		rt.reg.Gauge("neighbor_rebuild_interval_steps",
			"configured Verlet-skin rebuild cadence (1 = rebuild every step)").Set(1)
	}
	return rt
}

// neighborRebuild records a step whose FindNeighbors phase performs a full
// candidate-list rebuild (as opposed to a Verlet-skin refresh).
func (rt *runTelemetry) neighborRebuild() {
	if rt == nil {
		return
	}
	rt.nbrRebuilds.Inc()
}

// instrumentRank attaches the device observer, wraps the clock setter, and
// wraps the strategy of one rank so kernels, frequency changes, and
// strategy decisions flow into the tracer and registry.
func (rt *runTelemetry) instrumentRank(rc *rankCtx, rank int) {
	if rt == nil {
		return
	}
	obs := &rankObserver{rank: rank, rt: rt}
	if rt.reg != nil {
		obs.clock = rt.reg.Gauge("gpu_clock_mhz",
			"current SM application clock", telemetry.L("rank", strconv.Itoa(rank)))
	}
	if rt.tr != nil {
		obs.kernelRefs = map[string]telemetry.SpanRef{}
	}
	rt.observers = append(rt.observers, obs)
	rc.dev.SetObserver(obs)
	rc.setter = freqctl.InstrumentedSetter{
		Inner: rc.setter,
		OnSet: func(requestedMHz, appliedMHz int, latencyS float64, err error) {
			rt.freqSwitches.Inc()
			rt.switchLatency.Observe(latencyS)
		},
	}
	if rt.tr != nil {
		// Strategy decisions only feed the tracer; metrics-only runs skip
		// the capture wrapper entirely.
		rc.strategy = &freqctl.Traced{
			Inner: rc.strategy,
			Sink: &rankDecisionSink{rank: rank, rt: rt, dev: rc.dev,
				refs: map[string]telemetry.SpanRef{}},
		}
	}
}

// rankObserver forwards one device's events onto its rank track. Each
// observer serves one rank: kernelRefs and the kernels cell are per rank,
// so a kernel launch touches no registry counter (the run loop folds the
// cells into kernel_launches_total at step boundaries).
type rankObserver struct {
	rank       int
	rt         *runTelemetry
	clock      *telemetry.Gauge
	kernelRefs map[string]telemetry.SpanRef // kernel name → interned span
	kernels    atomic.Int64                 // launches on this rank so far
}

// KernelLaunched implements gpusim.Observer.
func (o *rankObserver) KernelLaunched(name string, startS, durS float64, clockMHz int, energyJ float64) {
	if o.rt.tr != nil {
		ref, ok := o.kernelRefs[name]
		if !ok {
			ref = o.rt.tr.Intern("kernel", name, "clock_mhz", "energy_j")
			o.kernelRefs[name] = ref
		}
		o.rt.tr.CompleteRef(o.rank, ref, startS, durS, float64(clockMHz), energyJ)
	}
	o.kernels.Add(1)
}

// ClockChanged implements gpusim.Observer.
func (o *rankObserver) ClockChanged(timeS float64, clockMHz int, cause string) {
	o.rt.tr.Instant(o.rank, "freq", "freq-change", timeS,
		telemetry.Int("mhz", clockMHz), telemetry.String("cause", cause))
	o.clock.Set(float64(clockMHz))
}

// rankDecisionSink records frequency-strategy decisions as instant events.
// Like the observer, one sink serves one rank; refs memoizes
// the interned "decision:<fn>" identities.
type rankDecisionSink struct {
	rank int
	rt   *runTelemetry
	dev  *gpusim.Device
	refs map[string]telemetry.SpanRef
}

// StrategyDecision implements freqctl.DecisionSink. Elided switches
// (requestedMHz < 0) are skipped: the interesting events are the actual
// clock transitions ManDyn issues at function boundaries.
func (s *rankDecisionSink) StrategyDecision(function string, requestedMHz, appliedMHz int) {
	if requestedMHz < 0 {
		return
	}
	ref, ok := s.refs[function]
	if !ok {
		ref = s.rt.tr.Intern("freqctl", "decision:"+function, "requested_mhz", "applied_mhz")
		s.refs[function] = ref
	}
	s.rt.tr.InstantRef(s.rank, ref, s.dev.Now(), float64(requestedMHz), float64(appliedMHz))
}

// waitRecorder adapts the tracer to mpisim.SpanRecorder. mpisim emits one
// span identity (the barrier wait), so it is interned at wiring time and
// every record goes straight to the fast path; anything else falls back to
// the tracer's general entry point.
type waitRecorder struct {
	tr  *telemetry.Tracer
	ref telemetry.SpanRef
}

// RecordSpan implements mpisim.SpanRecorder.
func (w waitRecorder) RecordSpan(rank int, category, name string, startS, durS float64) {
	if category == "mpi" && name == "barrier-wait" {
		w.tr.CompleteRef(rank, w.ref, startS, durS, 0, 0)
		return
	}
	w.tr.RecordSpan(rank, category, name, startS, durS)
}

// spanRecorder returns the world's span recorder, or nil when tracing is
// off.
func (rt *runTelemetry) spanRecorder() mpisim.SpanRecorder {
	if rt == nil || rt.tr == nil {
		return nil
	}
	return waitRecorder{tr: rt.tr, ref: rt.tr.Intern("mpi", "barrier-wait")}
}

// attachTraceSink mirrors the rank's frequency/power trace into counter
// tracks of the tracer, so the Fig. 9 trajectory renders alongside the
// spans in the same timeline.
func (rt *runTelemetry) attachTraceSink(trace *gpusim.Trace, rank int) {
	if rt == nil || rt.tr == nil || trace == nil {
		return
	}
	tr := rt.tr
	trace.SetSink(func(p gpusim.TracePoint) {
		tr.Counter(rank, "gpu_clock_mhz", p.TimeS, telemetry.Int("mhz", p.ClockMHz))
		tr.Counter(rank, "gpu_power_w", p.TimeS, telemetry.Float("watts", p.PowerW))
	})
}

// functionSpan records one rank's span for a finished function phase. The
// timestamps derive from values the runner computed anyway, so
// instrumentation adds no extra clock queries.
func (rt *runTelemetry) functionSpan(rank int, fn string, startS, durS, gpuJ, commS float64) {
	if rt == nil || rt.tr == nil {
		return
	}
	if fn != rt.curFnName {
		ref, ok := rt.fnRefs[fn]
		if !ok {
			ref = rt.tr.Intern("function", fn, "gpu_j", "comm_s")
			rt.fnRefs[fn] = ref
		}
		rt.curFnName, rt.curFnRef = fn, ref
	}
	rt.tr.CompleteRef(rank, rt.curFnRef, startS, durS, gpuJ, commS)
}

// phaseTailSpans records the post-barrier communication and host-serial
// spans of a phase. After Synchronize every rank clock sits at the same
// barrier time and the comm/host tail is global, so the spans would be
// byte-identical on every rank track — they are recorded once on the
// global track instead, nesting under the step span. This keeps trace
// volume per phase O(1) in the rank count.
func (rt *runTelemetry) phaseTailSpans(fn *FuncModel, endS, commS, hostS float64) {
	if rt == nil || rt.tr == nil {
		return
	}
	syncT := endS - commS - hostS
	if commS > 0 {
		label := commLabel(fn.Comm)
		ref, ok := rt.commRefs[label]
		if !ok {
			ref = rt.tr.Intern("mpi", label)
			rt.commRefs[label] = ref
		}
		rt.tr.CompleteRef(telemetry.GlobalTrack, ref, syncT, commS, 0, 0)
	}
	if hostS > 0 {
		ref, ok := rt.hostRefs[fn.Name]
		if !ok {
			ref = rt.tr.Intern("host", "host:"+fn.Name)
			rt.hostRefs[fn.Name] = ref
		}
		rt.tr.CompleteRef(telemetry.GlobalTrack, ref, syncT+commS, hostS, 0, 0)
	}
}

// functionTime observes one finished function phase's duration in the
// per-function latency histogram, giving p50/p95/p99 per pipeline pass on
// the exposition endpoints. Observed once per phase (not per rank): the
// phase duration is global after the barrier.
func (rt *runTelemetry) functionTime(name string, durS float64) {
	if rt == nil || rt.reg == nil {
		return
	}
	h, ok := rt.fnTime[name]
	if !ok {
		h = rt.reg.Histogram("function_time_s",
			"virtual wall time per function phase (kernel + barrier + comm + host tail)",
			telemetry.LatencyBuckets(), telemetry.L("function", name))
		rt.fnTime[name] = h
	}
	h.Observe(durS)
}

// phaseWaits accounts the barrier wait times of one phase.
func (rt *runTelemetry) phaseWaits(waits []float64) {
	if rt == nil {
		return
	}
	total := 0.0
	for _, w := range waits {
		total += w
	}
	rt.mpiWait.Add(total)
}

// commLabel names a communication pattern for the trace.
func commLabel(k CommKind) string {
	switch k {
	case CommHalo:
		return "halo-exchange"
	case CommAllreduce:
		return "allreduce"
	case CommDomainSync:
		return "domain-sync"
	}
	return "sync"
}

// stepSpan closes out one simulation step on the global track and folds
// the ranks' kernel-launch cells into the registry.
func (rt *runTelemetry) stepSpan(step int, startS, endS, energyJ float64) {
	if rt == nil {
		return
	}
	if rt.tr != nil {
		rt.tr.Complete(telemetry.GlobalTrack, "step", "step "+strconv.Itoa(step),
			startS, endS-startS, telemetry.Float("energy_j", energyJ))
	}
	rt.stepsTotal.Inc()
	rt.stepTime.Observe(endS - startS)
	rt.stepEnergy.Observe(energyJ)
	if rt.reg != nil {
		total := 0.0
		for _, o := range rt.observers {
			total += float64(o.kernels.Load())
		}
		rt.kernelLaunches.Add(total - rt.kernelFlushed)
		rt.kernelFlushed = total
	}
}

// finish records the run-level summary gauges.
func (rt *runTelemetry) finish(wallS float64, report *reportTotals) {
	if rt == nil || rt.reg == nil {
		return
	}
	rt.reg.Gauge("wall_time_s", "time-to-solution of the stepping loop").Set(wallS)
	eg := func(class string, j float64) {
		rt.reg.Gauge("energy_total_j", "loop energy by device class",
			telemetry.L("class", class)).Set(j)
	}
	eg("gpu", report.gpuJ)
	eg("cpu", report.cpuJ)
	eg("mem", report.memJ)
	eg("other", report.otherJ)
}

// reportTotals carries the per-class loop energy into finish.
type reportTotals struct {
	gpuJ, cpuJ, memJ, otherJ float64
}
