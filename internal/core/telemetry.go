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
}

// newRunTelemetry wires the tracer for a run, labeling the rank tracks and
// the global one; nil when the run has no tracer.
func newRunTelemetry(cfg Config) *runTelemetry {
	if cfg.Tracer == nil {
		return nil
	}
	rt := &runTelemetry{tr: cfg.Tracer}
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

// waitRecorder records the world's barrier waits on the rank tracks, under
// one span identity interned at wiring time.
type waitRecorder struct {
	tr  *telemetry.Tracer
	ref telemetry.SpanRef
}

// BarrierWait implements mpisim.WaitRecorder.
func (w waitRecorder) BarrierWait(rank int, startS, durS float64) {
	w.tr.CompleteRef(rank, w.ref, startS, durS, 0, 0)
}

// barrierWaits returns the world's barrier-wait recorder, or nil when
// tracing is off.
func (rt *runTelemetry) barrierWaits() mpisim.WaitRecorder {
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

// phaseSpans are the span identities of one pipeline function, interned
// once when the run resolves its phases, so the step loop records through
// refs only.
type phaseSpans struct {
	fn   telemetry.SpanRef // the per-rank "function" span
	comm telemetry.SpanRef // the "mpi" span of its communication
	host telemetry.SpanRef // the "host:" span of its serial time
}

// phaseSpans interns fn's span identities; zero when tracing is off.
func (rt *runTelemetry) phaseSpans(fn *FuncModel) phaseSpans {
	if rt == nil {
		return phaseSpans{}
	}
	return phaseSpans{
		fn:   rt.tr.Intern("function", fn.Name, "gpu_j", "comm_s"),
		comm: rt.tr.Intern("mpi", commLabel(fn.Comm)),
		host: rt.tr.Intern("host", "host:"+fn.Name),
	}
}

// functionSpan records one rank's span for a finished function phase. The
// timestamps derive from values the runner computed anyway, so
// instrumentation adds no extra clock queries.
func (rt *runTelemetry) functionSpan(rank int, sp *phaseSpans, startS, durS, gpuJ, commS float64) {
	if rt == nil {
		return
	}
	rt.tr.CompleteRef(rank, sp.fn, startS, durS, gpuJ, commS)
}

// phaseTailSpans records the post-barrier communication and host-serial
// spans of a phase. After Synchronize every rank clock sits at the same
// barrier time and the comm/host tail is global, so the spans would be
// byte-identical on every rank track — they are recorded once on the
// global track instead, nesting under the step span. This keeps trace
// volume per phase O(1) in the rank count.
func (rt *runTelemetry) phaseTailSpans(sp *phaseSpans, endS, commS, hostS float64) {
	if rt == nil {
		return
	}
	syncT := endS - commS - hostS
	if commS > 0 {
		rt.tr.CompleteRef(telemetry.GlobalTrack, sp.comm, syncT, commS, 0, 0)
	}
	if hostS > 0 {
		rt.tr.CompleteRef(telemetry.GlobalTrack, sp.host, syncT+commS, hostS, 0, 0)
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
