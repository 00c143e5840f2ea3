package recovery

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"sphenergy/internal/events"
)

// Config tunes run supervision: durability (Dir/AutosaveEvery/Keep),
// restart policy (MaxRestarts/BackoffS), budgets, and the watchdog.
// Events is an optional ledger shared across restart attempts, so the full
// recovery timeline of an interrupted run lands in one ledger.
type Config struct {
	// Dir is the snapshot directory; empty disables durability (budgets
	// and the watchdog still work, restarts then replay from step 0).
	Dir string
	// AutosaveEvery saves a checkpoint every N completed steps (0 = only
	// the final checkpoint).
	AutosaveEvery int
	// Keep is the snapshot retention depth (DefaultKeep when <= 0).
	Keep int
	// MaxRestarts bounds supervisor restarts; a run that fails more than
	// MaxRestarts+1 times total is abandoned with StatusRestartsExhausted.
	MaxRestarts int
	// BackoffS is the base of the exponential restart backoff in real
	// seconds (default 0.05): restart n waits BackoffS·2^n, capped at
	// maxBackoffS.
	BackoffS float64
	// WalltimeBudgetS stops the run gracefully once the virtual wall
	// clock passes the budget (0 = unlimited).
	WalltimeBudgetS float64
	// EnergyBudgetJ stops the run gracefully once total allocation energy
	// passes the budget (0 = unlimited).
	EnergyBudgetJ float64
	// Watchdog tunes hung-step detection.
	Watchdog WatchdogConfig

	// Events receives typed checkpoint/restart/watchdog/budget records.
	Events *events.Ledger

	// OnAttempt observes each attempt's controller just before the attempt
	// starts. Signal handlers use it to route RequestStop to whichever
	// attempt is currently live.
	OnAttempt func(*Controller)
}

// validate rejects the values defaulted or the loop would silently read as
// a default, "no restarts" or "unlimited": negative counts, and negative
// or NaN delays, budgets and watchdog settings.
func (c Config) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"AutosaveEvery", float64(c.AutosaveEvery)},
		{"Keep", float64(c.Keep)},
		{"MaxRestarts", float64(c.MaxRestarts)},
		{"BackoffS", c.BackoffS},
		{"WalltimeBudgetS", c.WalltimeBudgetS},
		{"EnergyBudgetJ", c.EnergyBudgetJ},
		{"Watchdog.Mult", c.Watchdog.Mult},
		{"Watchdog.MinDeadlineS", c.Watchdog.MinDeadlineS},
		{"Watchdog.PollS", c.Watchdog.PollS},
	} {
		if !(f.v >= 0) {
			return fmt.Errorf("recovery: %s = %v, want a value >= 0", f.name, f.v)
		}
	}
	return nil
}

func (c Config) defaulted() Config {
	if c.Keep <= 0 {
		c.Keep = DefaultKeep
	}
	if c.BackoffS <= 0 {
		c.BackoffS = 0.05
	}
	c.Watchdog = c.Watchdog.defaulted()
	return c
}

// maxBackoffS caps one restart backoff, in real seconds.
const maxBackoffS = 5

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
// boundaries: autosave cadence, watchdog heartbeats, budget checks, and
// externally requested graceful stops (signals). The runner calls StepDone
// after every completed step and Final once the loop ends; the supervisor
// abandons a stalled controller so a zombie attempt can no longer write
// snapshots or events.
type Controller struct {
	cfg   Config
	store *Store // nil when durability is off
	wd    *watchdog

	abandoned atomic.Bool
	extStop   atomic.Pointer[string] // externally requested stop cause

	mu        sync.Mutex
	saves     int
	lastPath  string
	stopCause string
}

// NewController builds a controller for one attempt. The store may be nil.
func NewController(cfg Config, store *Store) *Controller {
	cfg = cfg.defaulted()
	return &Controller{cfg: cfg, store: store, wd: newWatchdog(cfg.Watchdog)}
}

// RequestStop asks for a graceful stop at the next step boundary (the
// SIGINT/SIGTERM path): the runner will write a final checkpoint and
// return its partial result. Safe from any goroutine.
func (c *Controller) RequestStop(cause string) {
	c.extStop.Store(&cause)
}

// Abandon turns the controller into a no-op: a stalled attempt that later
// unblocks can no longer save snapshots or emit events over the
// replacement attempt.
func (c *Controller) Abandon() { c.abandoned.Store(true) }

// StepDone is the runner's step-boundary hook. step is the completed step
// index, wallS/energyJ the run's virtual wall clock and total allocation
// energy so far, and encode serializes the model state after this step.
// It autosaves on cadence, feeds the watchdog, enforces budgets and
// external stop requests, and returns whether to continue.
func (c *Controller) StepDone(step int, wallS, energyJ float64, m Meta, encode func(io.Writer) error) Directive {
	if c == nil {
		return Continue
	}
	c.wd.beat(time.Now())
	if c.abandoned.Load() {
		// The supervisor moved on; quietly wind the zombie attempt down.
		return Stop
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
			c.emit(events.Event{
				Type: events.BudgetStop, TimeS: wallS, Step: step, Rank: -1,
				Detail: cause, Value: energyJ,
			})
		}
		c.mu.Lock()
		c.stopCause = cause
		c.mu.Unlock()
		return Stop
	}

	if c.store != nil && c.cfg.AutosaveEvery > 0 && (step+1)%c.cfg.AutosaveEvery == 0 {
		c.save(m, wallS, encode, "autosave")
	}
	return Continue
}

// Final persists the end-of-run checkpoint (normal completion). No-op
// without a store or after abandonment.
func (c *Controller) Final(m Meta, wallS float64, encode func(w io.Writer) error) {
	if c == nil || c.abandoned.Load() {
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
		c.emit(events.Event{
			Type: events.CheckpointSave, TimeS: wallS, Step: m.Step - 1, Rank: -1,
			Detail: "save-failed:" + detail, Err: err.Error(),
		})
		return
	}
	c.mu.Lock()
	c.saves++
	c.lastPath = path
	c.mu.Unlock()
	c.emit(events.Event{
		Type: events.CheckpointSave, TimeS: wallS, Step: m.Step - 1, Rank: -1,
		Detail: detail, Value: durS,
	})
}

func (c *Controller) emit(ev events.Event) {
	if c.abandoned.Load() {
		return
	}
	c.cfg.Events.Emit(ev)
}

// Saves returns how many snapshots this attempt wrote and the path of the
// most recent one.
func (c *Controller) Saves() (n int, lastPath string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saves, c.lastPath
}

// StopCause returns why StepDone returned Stop ("" when the run was not
// stopped by the controller).
func (c *Controller) StopCause() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopCause
}

// stalledNow exposes the watchdog check to the supervisor.
func (c *Controller) stalledNow() (sinceS float64, hit bool) {
	return c.wd.stalled(time.Now())
}

// String implements fmt.Stringer for debug logs.
func (c *Controller) String() string {
	n, last := c.Saves()
	return fmt.Sprintf("recovery.Controller{saves:%d last:%s}", n, last)
}
