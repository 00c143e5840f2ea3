package recovery

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"sphenergy/internal/events"
)

// Config tunes run supervision: durability (Dir/AutosaveEvery/Keep), the
// restart bound (MaxRestarts) and budgets.
// Events is an optional ledger shared across restart attempts, so the full
// recovery timeline of an interrupted run lands in one ledger.
type Config struct {
	// Dir is the snapshot directory; empty disables durability (budgets
	// still work, restarts then replay from step 0).
	Dir string
	// AutosaveEvery saves a checkpoint every N completed steps (0 = only
	// the final checkpoint).
	AutosaveEvery int
	// Keep is the snapshot retention depth (DefaultKeep when <= 0).
	Keep int
	// MaxRestarts bounds supervisor restarts; a run that fails more than
	// MaxRestarts+1 times in all ends with StatusRestartsExhausted.
	MaxRestarts int
	// WalltimeBudgetS stops the run gracefully once the virtual wall
	// clock passes the budget (0 = unlimited).
	WalltimeBudgetS float64
	// EnergyBudgetJ stops the run gracefully once total allocation energy
	// passes the budget (0 = unlimited).
	EnergyBudgetJ float64

	// Events receives typed checkpoint/restart/budget records.
	Events *events.Ledger

	// OnAttempt observes each attempt's controller just before the attempt
	// starts. Signal handlers use it to route RequestStop to whichever
	// attempt is currently live.
	OnAttempt func(*Controller)
}

// validate rejects the values the loop would silently read as a default,
// "no restarts" or "unlimited": negative counts, and negative or NaN
// budgets.
func (c Config) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"AutosaveEvery", float64(c.AutosaveEvery)},
		{"Keep", float64(c.Keep)},
		{"MaxRestarts", float64(c.MaxRestarts)},
		{"WalltimeBudgetS", c.WalltimeBudgetS},
		{"EnergyBudgetJ", c.EnergyBudgetJ},
	} {
		if !(f.v >= 0) {
			return fmt.Errorf("recovery: %s = %v, want a value >= 0", f.name, f.v)
		}
	}
	return nil
}

// Stop causes (Controller.StopCause, Outcome.StopCause).
const (
	StopWalltimeBudget = "budget-walltime"
	StopEnergyBudget   = "budget-energy"
)

// Directive is the Controller's verdict at a step boundary.
type Directive int

const (
	// Continue runs the next step.
	Continue Directive = iota
	// Stop ends the run gracefully now: a final checkpoint has already
	// been written (when a store is configured) and the runner should
	// return its partial result.
	Stop
)

// Controller drives one run attempt's recovery decisions at step
// boundaries: autosave cadence, budget checks, and externally requested
// graceful stops (signals). The runner calls StepDone after every
// completed step and Final once the loop ends, both on the attempt's
// goroutine; RequestStop is the one method safe from any other.
type Controller struct {
	cfg   Config
	store *Store // nil when durability is off

	extStop atomic.Pointer[string] // externally requested stop cause

	saves     int
	lastPath  string
	stopCause string
}

// NewController builds a controller for one attempt. The store may be nil.
func NewController(cfg Config, store *Store) *Controller {
	return &Controller{cfg: cfg, store: store}
}

// RequestStop asks for a graceful stop at the next step boundary (the
// SIGINT/SIGTERM path): the runner will write a final checkpoint and
// return its partial result. Safe from any goroutine.
func (c *Controller) RequestStop(cause string) {
	c.extStop.Store(&cause)
}

// StepDone is the runner's step-boundary hook. step is the completed step
// index, wallS/energyJ the run's virtual wall clock and total allocation
// energy so far, and encode serializes the model state after this step.
// It autosaves on cadence, enforces budgets and external stop requests,
// and returns whether to continue.
func (c *Controller) StepDone(step int, wallS, energyJ float64, m Meta, encode func(io.Writer) error) Directive {
	if c == nil {
		return Continue
	}

	cause := ""
	switch {
	case c.cfg.WalltimeBudgetS > 0 && wallS >= c.cfg.WalltimeBudgetS:
		cause = StopWalltimeBudget
	case c.cfg.EnergyBudgetJ > 0 && energyJ >= c.cfg.EnergyBudgetJ:
		cause = StopEnergyBudget
	case c.extStop.Load() != nil:
		cause = *c.extStop.Load()
	}
	if cause != "" {
		c.finalSave(m, wallS, encode, cause)
		if cause == StopWalltimeBudget || cause == StopEnergyBudget {
			c.cfg.Events.Emit(events.Event{
				Type: events.BudgetStop, TimeS: wallS, Step: step, Rank: -1,
				Detail: cause, Value: energyJ,
			})
		}
		c.stopCause = cause
		return Stop
	}

	if c.store != nil && c.cfg.AutosaveEvery > 0 && (step+1)%c.cfg.AutosaveEvery == 0 {
		c.save(m, wallS, encode, "autosave")
	}
	return Continue
}

// Final persists the end-of-run checkpoint (normal completion). No-op
// without a store.
func (c *Controller) Final(m Meta, wallS float64, encode func(w io.Writer) error) {
	if c == nil {
		return
	}
	c.finalSave(m, wallS, encode, "final")
}

func (c *Controller) finalSave(m Meta, wallS float64, encode func(io.Writer) error, cause string) {
	if c.store == nil {
		return
	}
	c.save(m, wallS, encode, "final:"+cause)
}

// save writes one snapshot, recording duration and ledger visibility.
// Save failures are surfaced as events (detail "save-failed") but do not
// abort the run — a run with a full disk should still finish.
func (c *Controller) save(m Meta, wallS float64, encode func(io.Writer) error, detail string) {
	start := time.Now()
	path, err := c.store.Save(m, encode)
	durS := time.Since(start).Seconds()
	if err != nil {
		c.cfg.Events.Emit(events.Event{
			Type: events.CheckpointSave, TimeS: wallS, Step: m.Step - 1, Rank: -1,
			Detail: "save-failed:" + detail, Err: err.Error(),
		})
		return
	}
	c.saves++
	c.lastPath = path
	c.cfg.Events.Emit(events.Event{
		Type: events.CheckpointSave, TimeS: wallS, Step: m.Step - 1, Rank: -1,
		Detail: detail, Value: durS,
	})
}

// Saves returns how many snapshots this attempt wrote and the path of the
// most recent one.
func (c *Controller) Saves() (n int, lastPath string) {
	return c.saves, c.lastPath
}

// StopCause returns why StepDone returned Stop ("" when the run was not
// stopped by the controller).
func (c *Controller) StopCause() string {
	return c.stopCause
}

// String implements fmt.Stringer for debug logs.
func (c *Controller) String() string {
	n, last := c.Saves()
	return fmt.Sprintf("recovery.Controller{saves:%d last:%s}", n, last)
}
