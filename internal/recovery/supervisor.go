package recovery

import (
	"fmt"

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
// receive the attempt's step-boundary StepDone calls for autosave and
// budget enforcement to work.
type AttemptFunc[T any] func(resume *Resume, ctl *Controller) (T, error)

// Supervise runs attempt under the supervision loop: restore the newest
// valid snapshot, run, and on a crash (error or panic) restart from disk
// at once, up to MaxRestarts restarts. Each attempt runs on the caller's
// goroutine, so nothing of a failed attempt outlives it: when Supervise
// returns, the ledger and every other observer the attempts share are
// final. A graceful controller stop (budget/signal) is a success with
// Outcome.Status = StatusStopped; a stop requested during an attempt that
// then crashed carries over to the next attempt. The returned error is
// non-nil only when the config is invalid, restarts are exhausted or the
// store cannot be opened; an invalid config runs no attempt.
func Supervise[T any](cfg Config, attempt AttemptFunc[T]) (T, *Outcome, error) {
	var zero T
	out := &Outcome{Status: StatusCompleted}
	if err := cfg.validate(); err != nil {
		return zero, out, err
	}
	var store *Store
	if cfg.Dir != "" {
		var err error
		store, err = Open(cfg.Dir, cfg.Keep)
		if err != nil {
			return zero, out, err
		}
	}

	var prev *Controller
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
		if prev != nil {
			// Read only now that OnAttempt routes new requests to ctl, so a
			// stop requested between the two attempts is not lost either.
			if cause := prev.extStop.Load(); cause != nil {
				ctl.extStop.CompareAndSwap(nil, cause)
			}
		}
		v, err := runAttempt(attempt, resume, ctl)
		if err == nil {
			if cause := ctl.StopCause(); cause != "" {
				out.Status = StatusStopped
				out.StopCause = cause
			} else {
				out.Status = StatusCompleted
			}
			return v, out, nil
		}

		out.AttemptErrors = append(out.AttemptErrors, err.Error())
		if attemptN >= cfg.MaxRestarts {
			out.Status = StatusRestartsExhausted
			return zero, out, fmt.Errorf("recovery: restarts exhausted after %d attempt(s): %w",
				attemptN+1, err)
		}
		out.Restarts++
		cfg.Events.Emit(events.Event{
			Type: events.Restart, Step: -1, Rank: -1, Detail: err.Error(),
		})
		prev = ctl
	}
}

// runAttempt calls attempt on this goroutine and turns a panic under it
// into the attempt's error.
func runAttempt[T any](attempt AttemptFunc[T], resume *Resume, ctl *Controller) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recovery: attempt panicked: %v", r)
		}
	}()
	return attempt(resume, ctl)
}
