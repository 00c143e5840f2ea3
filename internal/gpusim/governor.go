package gpusim

import "math"

// governor models the hardware DVFS policy of the device: clocks ramp
// exponentially toward a utilization-derived target while kernels execute,
// stay boosted for a hold window after the last kernel (launch-to-launch
// hysteresis), and then decay toward the idle clock.
//
// Two properties of this model reproduce the paper's §IV-E observations:
//
//  1. Lightweight kernel launches boost clocks (and thus voltage and power)
//     even though the kernels cannot use the frequency — the
//     DomainDecompAndSync pattern of Fig. 9 — because at launch time the
//     governor has no utilization information yet.
//  2. Communication phases let the clock dip once the boost hold expires,
//     producing the sub-1000 MHz valleys at time-step boundaries.
type governor struct {
	spec      *Spec   // the owning device's
	current   float64 // current SM clock in MHz
	holdUntil float64 // virtual time until which boost is held
}

func newGovernor(s *Spec) governor {
	return governor{spec: s, current: float64(s.IdleSMClockMHz)}
}

// target computes the governor's frequency target for a kernel. The
// utilization hint blends the kernel's SM activity with its occupancy: the
// governor overestimates the demand of light kernels (it sees "busy", not
// "how busy"), which is exactly the overestimation reported in the paper's
// reference [25]; the floor of 0.55 encodes that any launch boosts well
// above idle.
func (g *governor) target(t *kernelTiming) float64 {
	hint := t.smActivity * (0.5 + 0.5*t.occupancy)
	u := 0.55 + 0.65*hint
	if u > 1 {
		u = 1
	}
	span := float64(g.spec.MaxSMClockMHz - g.spec.IdleSMClockMHz)
	return float64(g.spec.IdleSMClockMHz) + span*u
}

// executeKernel advances the device through one kernel batch under governor
// control. Returns the kernel duration.
func (g *governor) executeKernel(d *Device, k *KernelDesc, t *kernelTiming) float64 {
	start := g.current
	tgt := g.target(t)
	// Power limits derate the governor target exactly like locked clocks.
	eff, _ := d.derateClock(int(tgt+0.5), t)
	tgt = float64(eff)
	tau := g.spec.RampTauS

	// Duration and mean frequency are mutually dependent (slower clock =>
	// longer kernel => more ramp completed); a short fixed-point iteration
	// converges because duration is monotone in mean frequency.
	favg := tgt
	dur := t.durationAt(g.spec, int(favg+0.5))
	for iter := 0; iter < 4; iter++ {
		favg = meanRampFreq(start, tgt, tau, dur)
		if favg < float64(g.spec.IdleSMClockMHz) {
			favg = float64(g.spec.IdleSMClockMHz)
		}
		dur = t.durationAt(g.spec, int(favg+0.5))
	}

	p := d.kernelPower(int(favg+0.5), t)
	// End-of-kernel frequency after the exponential approach.
	g.current = tgt + (start-tgt)*math.Exp(-dur/tau)
	d.account(dur, p, k.Name)
	g.holdUntil = d.now + g.spec.BoostHoldS
	return dur
}

// meanRampFreq is the time average of f(t) = tgt + (start-tgt) e^{-t/tau}
// over [0, T].
func meanRampFreq(start, tgt, tau, T float64) float64 {
	if T <= 0 {
		return start
	}
	return tgt + (start-tgt)*(tau/T)*(1-math.Exp(-T/tau))
}

// idle advances the device through an idle window under governor control.
func (g *governor) idle(d *Device, seconds float64) {
	remaining := seconds
	// Phase 1: boost hold — clock stays where it is.
	if hold := g.holdUntil - d.now; hold > 0 {
		h := math.Min(hold, remaining)
		p := d.power(int(g.current+0.5), 0.08, 0.02)
		d.account(h, p, "")
		remaining -= h
	}
	if remaining <= 0 {
		return
	}
	// Phase 2: exponential decay toward the idle clock, integrated in a few
	// substeps so traces capture the shape.
	idleF := float64(g.spec.IdleSMClockMHz)
	tau := g.spec.IdleDecayS
	const substeps = 4
	dt := remaining / substeps
	for i := 0; i < substeps; i++ {
		// Mean frequency over this substep.
		f0 := g.current
		f1 := idleF + (f0-idleF)*math.Exp(-dt/tau)
		favg := meanRampFreq(f0, idleF, tau, dt)
		p := d.power(int(favg+0.5), 0.03, 0.01)
		g.current = f1
		d.account(dt, p, "")
	}
}
