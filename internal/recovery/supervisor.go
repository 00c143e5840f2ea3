package recovery

import (
	"fmt"
	"math"
	"time"

	"sphenergy/internal/events"
)

// Status classifies how a supervised run ended.
type Status string

const (
	// StatusCompleted: the run finished every step.
	StatusCompleted Status = "completed"
	// StatusStopped: the run stopped gracefully early — budget exhausted
	// or an external stop request (signal) — with a final checkpoint.
	StatusStopped Status = "stopped"
	// StatusRestartsExhausted: every allowed attempt failed.
	StatusRestartsExhausted Status = "restarts-exhausted"
)

// Outcome summarizes a supervised run for callers and reports.
type Outcome struct {
	Status   Status `json:"status"`
	Attempts int    `json:"attempts"`
	Restarts int    `json:"restarts"`
	// WatchdogStalls counts attempts abandoned for missing their step
	// deadline.
	WatchdogStalls int `json:"watchdog_stalls"`
	// StopCause is why a StatusStopped run stopped (StopWalltimeBudget,
	// StopEnergyBudget, or the external cause passed to RequestStop).
	StopCause string `json:"stop_cause,omitempty"`
	// Resumed/ResumeStep describe the last restore (ResumeStep is the
	// next step executed after restoring).
	Resumed    bool `json:"resumed,omitempty"`
	ResumeStep int  `json:"resume_step,omitempty"`
	// CorruptSkipped counts snapshots that failed verification and were
	// skipped on the way to a valid one.
	CorruptSkipped int `json:"corrupt_skipped,omitempty"`
	// AttemptErrors records each failed attempt's error text, in order.
	AttemptErrors []string `json:"attempt_errors,omitempty"`
}

// Resume hands an attempt the snapshot to restore from.
type Resume struct {
	Snapshot Snapshot
	Payload  []byte
}

// AttemptFunc runs one attempt. resume is nil for a fresh start; ctl must
// receive the attempt's step-boundary StepDone calls for autosave,
// watchdog, and budget enforcement to work.
type AttemptFunc[T any] func(resume *Resume, ctl *Controller) (T, error)

// Supervise runs attempt under the full supervision loop: restore the
// newest valid snapshot, run, and on a crash (error or panic) or a
// watchdog stall restart from disk with exponential backoff, up to
// MaxRestarts restarts. A graceful controller stop (budget/signal) is a
// success with Outcome.Status = StatusStopped. The returned error is
// non-nil only when the config is invalid, restarts are exhausted or the
// store cannot be opened; an invalid config runs no attempt.
func Supervise[T any](cfg Config, attempt AttemptFunc[T]) (T, *Outcome, error) {
	var zero T
	out := &Outcome{Status: StatusCompleted}
	if err := cfg.validate(); err != nil {
		return zero, out, err
	}
	cfg = cfg.defaulted()
	var store *Store
	if cfg.Dir != "" {
		var err error
		store, err = Open(cfg.Dir, cfg.Keep)
		if err != nil {
			return zero, out, err
		}
	}
	poll := time.Duration(cfg.Watchdog.PollS * float64(time.Second))

	for attemptN := 0; ; attemptN++ {
		out.Attempts = attemptN + 1
		var resume *Resume
		if store != nil {
			if snap, payload, skipped, ok := store.Latest(); ok {
				resume = &Resume{Snapshot: snap, Payload: payload}
				out.Resumed = true
				out.ResumeStep = snap.Meta.Step
				out.CorruptSkipped += len(skipped)
				detail := "restore"
				if len(skipped) > 0 {
					detail = fmt.Sprintf("restore-fallback:%d-corrupt-skipped", len(skipped))
				}
				cfg.Events.Emit(events.Event{
					Type: events.CheckpointRestore, TimeS: snap.Meta.TimeS,
					Step: snap.Meta.Step, Rank: -1, Detail: detail,
				})
			}
		}

		ctl := NewController(cfg, store)
		if cfg.OnAttempt != nil {
			cfg.OnAttempt(ctl)
		}
		type result struct {
			v   T
			err error
		}
		done := make(chan result, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- result{err: fmt.Errorf("recovery: attempt panicked: %v", r)}
				}
			}()
			v, err := attempt(resume, ctl)
			done <- result{v, err}
		}()

		var ar result
		stalled := false
	wait:
		for {
			select {
			case ar = <-done:
				break wait
			case <-time.After(poll):
				if sinceS, hit := ctl.stalledNow(); hit {
					// Abandon the hung attempt: it can no longer save or
					// emit, and is wound down at its next step boundary (a
					// truly wedged step leaks its goroutine — restarting in
					// place is still better than hanging the whole run).
					ctl.Abandon()
					out.WatchdogStalls++
					cfg.Events.Emit(events.Event{
						Type: events.WatchdogStall, Step: -1, Rank: -1,
						Detail: fmt.Sprintf("no step-boundary heartbeat for %.2fs", sinceS),
						Value:  sinceS,
					})
					ar = result{err: fmt.Errorf(
						"recovery: watchdog: no step-boundary heartbeat for %.2f s (deadline %.2f s)",
						sinceS, ctl.wd.deadlineS())}
					stalled = true
					break wait
				}
			}
		}

		if !stalled && ar.err == nil {
			if cause := ctl.StopCause(); cause != "" {
				out.Status = StatusStopped
				out.StopCause = cause
			} else {
				out.Status = StatusCompleted
			}
			return ar.v, out, nil
		}

		out.AttemptErrors = append(out.AttemptErrors, ar.err.Error())
		if attemptN >= cfg.MaxRestarts {
			out.Status = StatusRestartsExhausted
			return zero, out, fmt.Errorf("recovery: restarts exhausted after %d attempt(s): %w",
				attemptN+1, ar.err)
		}
		out.Restarts++
		d := math.Min(cfg.BackoffS*math.Pow(2, float64(attemptN)), maxBackoffS)
		cfg.Events.Emit(events.Event{
			Type: events.Restart, Step: -1, Rank: -1,
			Detail: ar.err.Error(), Value: d,
		})
		time.Sleep(time.Duration(d * float64(time.Second)))
	}
}
