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
	tr   *telemetry.Tracer
	wait telemetry.SpanRef // the "mpi" barrier-wait span
	// freq holds the freq-change instant of each clockCauses entry, interned
	// on the cause's first use (when freqSeen says so), so that a run
	// interns only the causes it records.
	freq     [2]telemetry.SpanRef
	freqSeen [2]bool
}

// The causes of a freq-change instant, the application-clock operation
// that reached the device, indexing runTelemetry.freq.
const (
	causeSet = iota
	causeReset
)

var clockCauses = [2]string{causeSet: "set-app-clocks", causeReset: "reset-app-clocks"}

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
	rt.wait = rt.tr.Intern("mpi", "barrier-wait")
	return rt
}

// clockChange records one freq-change instant: a clock operation of the
// rank's device, by its cause, and the clock in effect afterwards.
func (rt *runTelemetry) clockChange(rank int, timeS float64, mhz, cause int) {
	if rt == nil {
		return
	}
	if !rt.freqSeen[cause] {
		rt.freq[cause] = rt.tr.InternWith("freq", "freq-change", "cause", clockCauses[cause], "mhz")
		rt.freqSeen[cause] = true
	}
	rt.tr.InstantRef(rank, rt.freq[cause], timeS, float64(mhz), 0)
}

// kernelSpan records one rank's kernel launch of a phase: it started at
// startS with the device's energy counter at startJ and ran durS; the span
// carries the clock the launch ended at and the energy it drew.
func (rt *runTelemetry) kernelSpan(rank int, sp *phaseSpans, dev *gpusim.Device, startS, startJ, durS float64) {
	if rt == nil {
		return
	}
	rt.tr.CompleteRef(rank, sp.kernel, startS, durS, float64(dev.SMClockMHz()), dev.EnergyJ()-startJ)
}

// barrierWaits records the waits a barrier returned: each rank that waited
// wt did so from the end of its own work, world.Clock(r)-wt.
func (rt *runTelemetry) barrierWaits(world *mpisim.World, waits []float64) {
	if rt == nil {
		return
	}
	for r, wt := range waits {
		if wt > 0 {
			rt.tr.CompleteRef(r, rt.wait, world.Clock(r)-wt, wt, 0, 0)
		}
	}
}

// ClockCounters returns a Config.ClockSink that records rank 0's
// frequency/power points as the gpu_clock_mhz and gpu_power_w counter
// tracks of tr, so the Fig. 9 trajectory renders alongside the spans in the
// same timeline. `sphexa -out` installs it for the bundle's trace; Fig. 9
// passes a sink of its own, and a run with a tracer but no ClockSink (the
// repository's benchmark, `sphexa -energy-validate`) records no counters.
func ClockCounters(tr *telemetry.Tracer) gpusim.PointSink {
	clock, power := tr.Intern("", "gpu_clock_mhz", "mhz"), tr.Intern("", "gpu_power_w", "watts")
	return func(p gpusim.TracePoint) {
		tr.CounterRef(0, clock, p.TimeS, float64(p.ClockMHz), 0)
		tr.CounterRef(0, power, p.TimeS, p.PowerW, 0)
	}
}

// phaseSpans are the span identities of one pipeline function, interned
// once when the run resolves its phases, so the step loop records through
// refs only.
type phaseSpans struct {
	fn     telemetry.SpanRef // the per-rank "function" span
	kernel telemetry.SpanRef // the per-rank "kernel" span of its launch
	comm   telemetry.SpanRef // the "mpi" span of its communication
	host   telemetry.SpanRef // the "host:" span of its serial time
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
		// A phase launches fn's kernel, which carries fn's name.
		kernel: rt.tr.Intern("kernel", fn.Name, "clock_mhz", "energy_j"),
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
