package recovery

import (
	"math"
	"sync"
	"time"
)

// WatchdogConfig tunes hung-step detection, which every Supervise attempt
// runs. The watchdog compares the real time since the last step-boundary
// heartbeat against a per-step deadline derived from a rolling estimate of
// real step duration: deadline = max(MinDeadlineS, Mult × estimate). The
// estimate is an EWMA of the attempt's own step wall times, so each attempt
// starts from the MinDeadlineS floor.
type WatchdogConfig struct {
	// Mult scales the rolling step-time estimate into a deadline
	// (default 16 — simulation steps are uniform, a 16x outlier is a hang).
	Mult float64
	// MinDeadlineS floors the deadline so cold starts (no estimate yet)
	// and fast steps do not false-positive (default 30 s).
	MinDeadlineS float64
	// PollS is the supervisor's stall-poll interval (default 50 ms).
	PollS float64
}

func (c WatchdogConfig) defaulted() WatchdogConfig {
	if c.Mult <= 0 {
		c.Mult = 16
	}
	if c.MinDeadlineS <= 0 {
		c.MinDeadlineS = 30
	}
	if c.PollS <= 0 {
		c.PollS = 0.05
	}
	return c
}

// watchdog tracks step-boundary heartbeats and the rolling real-time
// estimate behind the per-step deadline.
type watchdog struct {
	cfg WatchdogConfig

	mu       sync.Mutex
	lastBeat time.Time
	ewma     float64 // seconds; 0 = no local observation yet
}

func newWatchdog(cfg WatchdogConfig) *watchdog {
	return &watchdog{cfg: cfg.defaulted(), lastBeat: time.Now()}
}

// beat records a step boundary, folding the elapsed real time into the
// rolling estimate.
func (w *watchdog) beat(now time.Time) {
	w.mu.Lock()
	dur := now.Sub(w.lastBeat).Seconds()
	w.lastBeat = now
	const alpha = 0.2
	if w.ewma == 0 {
		w.ewma = dur
	} else {
		w.ewma = alpha*dur + (1-alpha)*w.ewma
	}
	w.mu.Unlock()
}

// deadlineS returns the current per-step deadline in seconds.
func (w *watchdog) deadlineS() float64 {
	w.mu.Lock()
	est := w.ewma
	w.mu.Unlock()
	return math.Max(w.cfg.MinDeadlineS, w.cfg.Mult*est)
}

// stalled reports whether the time since the last heartbeat exceeds the
// per-step deadline.
func (w *watchdog) stalled(now time.Time) (sinceS float64, hit bool) {
	w.mu.Lock()
	last := w.lastBeat
	w.mu.Unlock()
	sinceS = now.Sub(last).Seconds()
	return sinceS, sinceS > w.deadlineS()
}
