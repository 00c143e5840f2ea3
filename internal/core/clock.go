package core

import (
	"fmt"

	"sphenergy/internal/events"
	"sphenergy/internal/faults"
	"sphenergy/internal/freqctl"
)

// The one retry and breaker policy of a rank's clock control under a fault
// plan.
const (
	// clockAttempts is how many times a set is tried before its failure is
	// absorbed.
	clockAttempts = 3
	// breakerThreshold is the number of consecutive absorbed failures that
	// latches the breaker to the device's maximum application clock (the
	// paper's baseline: energy-suboptimal but never performance-degrading).
	breakerThreshold = 3
)

// rankClock is one rank's clock control, the freqctl.Setter its strategy
// acts through, over the rank's device.
//
// Without a fault plan a set is a bare device set. Under one, it is what a
// production DVFS client needs (Calore et al. note production nodes
// routinely reject or clamp user clock requests): a non-positive request
// is refused; each attempt first draws the rank's clock faults, which may
// reject it or cap its clock; a failed attempt is retried at once (the
// run's clock is virtual, so there is nothing to wait out), and a set that
// fails clockAttempts times is absorbed, because a missed switch costs
// some energy while an aborted run costs all of it; breakerThreshold
// consecutive absorbed sets latch a breaker that pins the maximum clock
// and short-circuits every later set.
//
// On every path, each operation that reaches the device is a freq-change
// instant on the rank's track when the run is traced, and, when the ledger
// is on, each resilience action is a freq-* row and the last set a
// strategy makes before a function is that function's freq-decision row.
// A rank's clock belongs to the goroutine that drives the run, so it has
// no lock.
type rankClock struct {
	freqctl.DeviceSetter
	rank int
	rt   *runTelemetry
	re   *runEvents
	// inj is the rank's clock-fault stream; nil without a fault plan.
	inj *faults.Injector

	// requested is the clock of the last set since apply began, -1 when
	// there was none; applied is what that set answered, and reached
	// whether it reached the device.
	requested, applied int
	reached            bool

	// consec counts consecutive absorbed sets.
	consec int
	broken bool
	// The resilience counters of the run's FaultReport.
	retries, absorbed, clamped, shortCircuits, breakerTrips uint64
}

// apply runs s's Apply before function fn. The last set it made is fn's
// decision, which the ledger records whether or not the set failed; an
// elided set makes none.
func (c *rankClock) apply(s freqctl.Strategy, fn string) error {
	c.requested = -1
	err := s.Apply(c, fn)
	if c.requested >= 0 {
		c.re.decision(c.rank, fn, c.Dev.Now(), c.requested, c.applied, c.reached)
	}
	return err
}

// SetSMClock implements freqctl.Setter. A set that did not reach the
// device returns the clock the device runs; under a fault plan an
// exhausted or short-circuited set does so with no error.
func (c *rankClock) SetSMClock(mhz int) (int, error) {
	applied, reached, err := c.set(mhz)
	if !reached {
		applied = c.Dev.SMClockMHz()
	}
	c.requested, c.applied, c.reached = mhz, applied, reached
	return applied, err
}

// set makes one set of mhz and reports whether it reached the device, and
// what the device answered when it did.
func (c *rankClock) set(mhz int) (applied int, reached bool, err error) {
	if c.inj == nil {
		applied, err = c.device(mhz)
		return applied, err == nil, err
	}
	if mhz <= 0 {
		return 0, false, fmt.Errorf("core: non-positive clock request %d MHz", mhz)
	}
	if c.broken {
		c.shortCircuits++
		c.emit(events.FreqShortCircuit, mhz, nil)
		return 0, false, nil
	}
	for try := 1; ; try++ {
		applied, err := c.attempt(mhz)
		if err == nil {
			c.consec = 0
			if applied != mhz {
				c.clamped++
				c.emit(events.FreqClamp, mhz, nil)
			}
			return applied, true, nil
		}
		if try == clockAttempts {
			c.absorb(mhz, err)
			return 0, false, nil
		}
		c.retries++
		c.emit(events.FreqRetry, mhz, err)
	}
}

// absorb swallows a set of mhz that failed with err on every attempt, and
// latches the breaker on the breakerThreshold-th in a row. The latch set
// is best-effort: when it fails too, the device keeps its clock.
func (c *rankClock) absorb(mhz int, err error) {
	c.absorbed++
	c.consec++
	c.emit(events.FreqAbsorb, mhz, err)
	if c.consec < breakerThreshold {
		return
	}
	c.broken = true
	c.breakerTrips++
	safe := c.MaxSMClock()
	c.attempt(safe)
	c.emit(events.FreqBreakerTrip, safe, err)
}

// attempt makes one set under the fault plan: the rank's clock faults draw
// once at the device's time, before the device is asked.
func (c *rankClock) attempt(mhz int) (int, error) {
	mhz, err := c.inj.ClockSet(c.Dev.Now(), mhz)
	if err != nil {
		return 0, err
	}
	return c.device(mhz)
}

// device sets the device's clock and records the change.
func (c *rankClock) device(mhz int) (int, error) {
	applied, err := c.DeviceSetter.SetSMClock(mhz)
	if err == nil {
		c.rt.clockChange(c.rank, c.Dev.Now(), applied, causeSet)
	}
	return applied, err
}

// ResetClocks implements freqctl.Setter. A reset always reaches the
// device, the breaker latched or not, and nothing can fail it.
func (c *rankClock) ResetClocks() error {
	c.Dev.ResetApplicationClocks()
	c.consec = 0
	c.rt.clockChange(c.rank, c.Dev.Now(), c.Dev.SMClockMHz(), causeReset)
	return nil
}

// emit records one resilience action of a set of mhz.
func (c *rankClock) emit(typ events.Type, mhz int, err error) {
	if c.re == nil {
		return
	}
	errText := ""
	if err != nil {
		errText = err.Error()
	}
	c.re.led.Emit(events.Event{
		TimeS: c.Dev.Now(), Step: c.re.step(), Rank: c.rank, Type: typ,
		Subject: "set", RequestedMHz: mhz, Err: errText,
	})
}
