package core

import "sphenergy/internal/freqctl"

// clockTap is the one observer on a rank's clock control. Run installs it
// between the strategy and the rank's setter (the resilient one under a
// fault plan) when a tracer or a decision ledger is on; strategies
// themselves are never wrapped. It keeps the (requested, applied) pair of
// the last set so the run loop can hand a strategy's decision to the tracer
// and the ledger once Apply has returned. One tap serves one rank.
type clockTap struct {
	freqctl.Setter
	// requested is the clock of the last set since arm, -1 when there was
	// none (the strategy elided it); applied is what the setter answered.
	requested, applied int
}

// arm forgets the last set, ahead of an Apply.
func (t *clockTap) arm() { t.requested = -1 }

// SetSMClock implements freqctl.Setter.
func (t *clockTap) SetSMClock(mhz int) (int, error) {
	applied, err := t.Setter.SetSMClock(mhz)
	t.requested, t.applied = mhz, applied
	return applied, err
}

// newClockTap builds a rank's clock tap over s.
func newClockTap(s freqctl.Setter) *clockTap {
	return &clockTap{Setter: s, requested: -1}
}
