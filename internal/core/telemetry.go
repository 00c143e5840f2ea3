package core

import (
	"fmt"
	"strconv"

	"sphenergy/internal/gpusim"
	"sphenergy/internal/mpisim"
	"sphenergy/internal/telemetry"
)

// runTelemetry wires the run's tracer. A nil *runTelemetry means tracing
// is off; every hook below guards on that, so the uninstrumented path costs
// one nil check per phase — the §III-B non-perturbation property.
type runTelemetry struct {
	tr *telemetry.Tracer

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
}

// newRunTelemetry wires the tracer for a run, labeling the rank tracks and
// the global one; nil when the run has no tracer.
func newRunTelemetry(cfg Config) *runTelemetry {
	if cfg.Tracer == nil {
		return nil
	}
	rt := &runTelemetry{
		tr:       cfg.Tracer,
		fnRefs:   map[string]telemetry.SpanRef{},
		hostRefs: map[string]telemetry.SpanRef{},
		commRefs: map[string]telemetry.SpanRef{},
	}
	for r := 0; r < cfg.Ranks; r++ {
		rt.tr.SetTrackName(r, fmt.Sprintf("rank %d", r))
	}
	rt.tr.SetTrackName(telemetry.GlobalTrack, "sim")
	return rt
}

// instrumentRank attaches the device observer of one rank so its kernels
// and clock changes flow into the tracer.
func (rt *runTelemetry) instrumentRank(rc *rankCtx, rank int) {
	if rt == nil {
		return
	}
	rc.dev.SetObserver(&rankObserver{rank: rank, tr: rt.tr,
		kernelRefs: map[string]telemetry.SpanRef{},
		clockRefs:  map[string]telemetry.SpanRef{}})
}

// rankObserver forwards one device's events onto its rank track. Each
// observer serves one rank, so its identity memos are per rank.
type rankObserver struct {
	rank       int
	tr         *telemetry.Tracer
	kernelRefs map[string]telemetry.SpanRef // kernel name → interned span
	clockRefs  map[string]telemetry.SpanRef // clock-change cause → interned instant
}

// KernelLaunched implements gpusim.Observer.
func (o *rankObserver) KernelLaunched(name string, startS, durS float64, clockMHz int, energyJ float64) {
	ref, ok := o.kernelRefs[name]
	if !ok {
		ref = o.tr.Intern("kernel", name, "clock_mhz", "energy_j")
		o.kernelRefs[name] = ref
	}
	o.tr.CompleteRef(o.rank, ref, startS, durS, float64(clockMHz), energyJ)
}

// ClockChanged implements gpusim.Observer.
func (o *rankObserver) ClockChanged(timeS float64, clockMHz int, cause string) {
	ref, ok := o.clockRefs[cause]
	if !ok {
		ref = o.tr.InternWith("freq", "freq-change", "cause", cause, "mhz")
		o.clockRefs[cause] = ref
	}
	o.tr.InstantRef(o.rank, ref, timeS, float64(clockMHz), 0)
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
	if rt == nil {
		return nil
	}
	return waitRecorder{tr: rt.tr, ref: rt.tr.Intern("mpi", "barrier-wait")}
}

// attachTraceSink mirrors the rank's frequency/power trace into counter
// tracks of the tracer, so the Fig. 9 trajectory renders alongside the
// spans in the same timeline.
func (rt *runTelemetry) attachTraceSink(trace *gpusim.Trace, rank int) {
	if rt == nil || trace == nil {
		return
	}
	tr := rt.tr
	clock, power := tr.Intern("", "gpu_clock_mhz", "mhz"), tr.Intern("", "gpu_power_w", "watts")
	trace.SetSink(func(p gpusim.TracePoint) {
		tr.CounterRef(rank, clock, p.TimeS, float64(p.ClockMHz), 0)
		tr.CounterRef(rank, power, p.TimeS, p.PowerW, 0)
	})
}

// functionSpan records one rank's span for a finished function phase. The
// timestamps derive from values the runner computed anyway, so
// instrumentation adds no extra clock queries.
func (rt *runTelemetry) functionSpan(rank int, fn string, startS, durS, gpuJ, commS float64) {
	if rt == nil {
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
	if rt == nil {
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

// stepSpan closes out one simulation step on the global track.
func (rt *runTelemetry) stepSpan(step int, startS, endS, energyJ float64) {
	if rt == nil {
		return
	}
	ref := rt.tr.Intern("step", "step "+strconv.Itoa(step), "energy_j")
	rt.tr.CompleteRef(telemetry.GlobalTrack, ref, startS, endS-startS, energyJ, 0)
}
