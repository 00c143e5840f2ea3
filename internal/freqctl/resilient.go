package freqctl

import (
	"fmt"
	"math"
)

// The one retry and breaker policy every ResilientSetter runs.
const (
	// resilientRetries is how many times a failed operation is retried
	// before it is absorbed: up to 3 attempts.
	resilientRetries = 2
	// breakerThreshold is the number of consecutive exhausted failures that
	// latches the circuit breaker to the device's maximum application clock
	// (the paper's baseline — energy-suboptimal but never
	// performance-degrading).
	breakerThreshold = 3
)

// ResilienceStats is a snapshot of a ResilientSetter's counters.
type ResilienceStats struct {
	// Retries counts re-attempts after a failed operation.
	Retries uint64
	// Absorbed counts operations that exhausted their retries and were
	// swallowed (the run continues on the previous clock).
	Absorbed uint64
	// Clamped counts sets whose achieved clock differed from the request
	// (platform clamp or nearest-supported snap).
	Clamped uint64
	// ShortCircuits counts sets skipped because the breaker was latched.
	ShortCircuits uint64
	// BreakerTrips counts breaker latch events (at most 1 per run today).
	BreakerTrips uint64
	// Broken reports whether the breaker is currently latched.
	Broken bool
	// LastApplied is the most recent clock known to be applied (0 before
	// any successful set).
	LastApplied int
}

// ResilientSetter wraps a Setter with the degradation behaviour a
// production DVFS client needs (Calore et al. note production nodes
// routinely reject or clamp user clock requests):
//
//   - requests are validated (positive MHz only);
//   - failed operations are retried at once, at most resilientRetries
//     times (the run's clock is virtual and advances only through device
//     activity, so there is nothing to wait out);
//   - exhausted failures are absorbed, not propagated — the run continues
//     on the previous clock and the failure is counted, because a missed
//     frequency switch costs some energy while an aborted simulation
//     costs all of it;
//   - breakerThreshold consecutive exhausted failures latch a circuit
//     breaker that pins the device to its maximum clock and short-circuits
//     further set attempts;
//   - the achieved clock is verified against the request, so clamped sets
//     are observable (Stats().Clamped, OnEvent) instead of silent.
//
// In the runner each rank owns one, on the goroutine that drives the run,
// so it has no lock.
type ResilientSetter struct {
	Inner Setter
	// OnEvent, when set, observes retries/absorbs/trips for telemetry.
	OnEvent func(ev ResilientEvent)

	consec int
	stats  ResilienceStats
}

// ResilientEvent describes one resilience action for telemetry sinks.
type ResilientEvent struct {
	// Kind is "retry", "absorb", "clamp", "breaker-trip" or
	// "short-circuit".
	Kind string
	// Op is the operation ("set", "reset").
	Op string
	// MHz is the requested clock for sets.
	MHz int
	// Err is the triggering error, when there is one.
	Err error
}

// NewResilientSetter wraps inner.
func NewResilientSetter(inner Setter) *ResilientSetter {
	return &ResilientSetter{Inner: inner}
}

func (r *ResilientSetter) emit(ev ResilientEvent) {
	if r.OnEvent != nil {
		r.OnEvent(ev)
	}
}

// ValidMHz rejects clock requests that cannot be a physical frequency:
// NaN, ±Inf, zero and negative values. It returns the validated integer
// MHz for callers converting from float inputs (config files, flags).
func ValidMHz(mhz float64) (int, error) {
	if math.IsNaN(mhz) || math.IsInf(mhz, 0) {
		return 0, fmt.Errorf("freqctl: non-finite clock request %v MHz", mhz)
	}
	i := int(mhz)
	if i <= 0 {
		return 0, fmt.Errorf("freqctl: non-positive clock request %v MHz", mhz)
	}
	return i, nil
}

// SetSMClock implements Setter with retry, absorption and the breaker.
// After the breaker latches it returns the safe clock without touching the
// device. An absorbed failure returns the last applied clock and no error;
// callers needing the failure count read Stats().
func (r *ResilientSetter) SetSMClock(mhz int) (int, error) {
	if _, err := ValidMHz(float64(mhz)); err != nil {
		return 0, err
	}
	if r.stats.Broken {
		r.stats.ShortCircuits++
		r.emit(ResilientEvent{Kind: "short-circuit", Op: "set", MHz: mhz})
		return r.stats.LastApplied, nil
	}
	applied, err := r.attempt("set", mhz, func() (int, error) {
		return r.Inner.SetSMClock(mhz)
	})
	if err != nil {
		return r.absorb("set", mhz, err), nil
	}
	r.consec = 0
	r.stats.LastApplied = applied
	if applied != mhz {
		r.stats.Clamped++
		r.emit(ResilientEvent{Kind: "clamp", Op: "set", MHz: mhz})
	}
	return applied, nil
}

// attempt runs op with bounded, back-to-back retries.
func (r *ResilientSetter) attempt(op string, mhz int, f func() (int, error)) (int, error) {
	for try := 0; ; try++ {
		applied, err := f()
		if err == nil || try >= resilientRetries {
			return applied, err
		}
		r.stats.Retries++
		r.emit(ResilientEvent{Kind: "retry", Op: op, MHz: mhz, Err: err})
	}
}

// absorb swallows an exhausted failure, possibly latching the breaker.
// Returns the clock the device is believed to run at.
func (r *ResilientSetter) absorb(op string, mhz int, err error) int {
	r.stats.Absorbed++
	r.consec++
	r.emit(ResilientEvent{Kind: "absorb", Op: op, MHz: mhz, Err: err})
	if !r.stats.Broken && r.consec >= breakerThreshold {
		r.stats.Broken = true
		r.stats.BreakerTrips++
		safe := r.Inner.MaxSMClock()
		// Best-effort latch to the safe clock; if even this fails the
		// device keeps whatever clock it has and we stop asking.
		if applied, serr := r.Inner.SetSMClock(safe); serr == nil {
			r.stats.LastApplied = applied
		}
		r.emit(ResilientEvent{Kind: "breaker-trip", Op: op, MHz: safe, Err: err})
	}
	return r.stats.LastApplied
}

// ResetClocks implements Setter with the same retry/absorb semantics.
func (r *ResilientSetter) ResetClocks() error {
	_, err := r.attempt("reset", 0, func() (int, error) {
		return 0, r.Inner.ResetClocks()
	})
	if err != nil {
		r.absorb("reset", 0, err)
		return nil
	}
	r.consec = 0
	r.stats.LastApplied = 0
	return nil
}

// MaxSMClock implements Setter.
func (r *ResilientSetter) MaxSMClock() int { return r.Inner.MaxSMClock() }

// SetPowerLimitW implements Setter (pass-through: power caps are not on
// the per-function hot path the resilience layer protects).
func (r *ResilientSetter) SetPowerLimitW(watts float64) error {
	return r.Inner.SetPowerLimitW(watts)
}

// Stats returns the resilience counters.
func (r *ResilientSetter) Stats() ResilienceStats { return r.stats }
