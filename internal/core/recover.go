package core

import (
	"sphenergy/internal/recovery"
)

// RunSupervised executes Run under the recovery supervisor: the newest
// valid snapshot in rcfg.Dir is restored before stepping, crashes and
// watchdog stalls restart the run from disk with seeded backoff up to
// rcfg.MaxRestarts, and budgets stop it gracefully with a final
// checkpoint. The Outcome reports attempts, restarts, stalls and the stop
// cause; the error is non-nil when the configuration is invalid (then
// before any attempt, with a nil Outcome: no restart can fix it), when
// restarts are exhausted, or when the snapshot store cannot be opened.
//
// A crash is an error from Run or a panic anywhere under it. The supervisor
// recovers panics of the attempt's goroutine only, and that is enough: Run
// starts no goroutines — ranks step in-line (mpisim.World.Execute) — so a
// panic in a strategy's Apply, a device's Execute, a fault hook or a sampler
// poll on any rank unwinds through Run and counts as one failed attempt
// (TestSupervisedRunSurvivesRankPanic).
func RunSupervised(cfg Config, rcfg recovery.Config) (*Result, *recovery.Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	return recovery.Supervise(rcfg, func(resume *recovery.Resume, ctl *recovery.Controller) (*Result, error) {
		c := cfg
		c.Recovery = &RunRecovery{Controller: ctl, Resume: resume}
		return Run(c)
	})
}
