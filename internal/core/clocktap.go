package core

import (
	"time"

	"sphenergy/internal/freqctl"
	"sphenergy/internal/telemetry"
)

// clockTap is the one observer on a rank's clock control. Run installs it
// between the strategy and the rank's setter (the resilient one under a
// fault plan) when a tracer, a metrics registry or a decision ledger is on;
// strategies themselves are never wrapped. It counts every clock set and
// its wall-clock latency — Setup's included — into freq_switches_total and
// freq_switch_latency_s, and keeps the (requested, applied) pair of the
// last set so the run loop can hand a strategy's decision to the tracer and
// the ledger once Apply has returned. One tap serves one rank.
type clockTap struct {
	freqctl.Setter
	switches *telemetry.Counter
	latency  *telemetry.Histogram
	// requested is the clock of the last set since arm, -1 when there was
	// none (the strategy elided it); applied is what the setter answered.
	requested, applied int
}

// arm forgets the last set, ahead of an Apply.
func (t *clockTap) arm() { t.requested = -1 }

// SetSMClock implements freqctl.Setter.
func (t *clockTap) SetSMClock(mhz int) (int, error) {
	start := time.Now()
	applied, err := t.Setter.SetSMClock(mhz)
	t.switches.Inc()
	t.latency.Observe(time.Since(start).Seconds())
	t.requested, t.applied = mhz, applied
	return applied, err
}

// newClockTap builds a rank's clock tap over s, counting into the run's
// switch metrics when rt has a registry.
func (rt *runTelemetry) newClockTap(s freqctl.Setter) *clockTap {
	t := &clockTap{Setter: s, requested: -1}
	if rt != nil {
		t.switches, t.latency = rt.freqSwitches, rt.switchLatency
	}
	return t
}
