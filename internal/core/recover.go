package core

import (
	"sphenergy/internal/recovery"
)

// RunSupervised executes Run under the recovery supervisor: the run
// resumes from the newest valid snapshot in rcfg.Dir, replaying the steps
// it records and refusing it when the replay misses them; a crash restarts
// the run from disk at once, up to rcfg.MaxRestarts times, and budgets and
// stop requests stop it gracefully with a final checkpoint. The Outcome
// reports attempts, restarts and the stop cause; the error is non-nil when
// the configuration is invalid (then before any attempt, with a nil
// Outcome: no restart can fix it), when restarts are exhausted, or when the
// snapshot store cannot be opened.
//
// A crash is an error from Run or a panic anywhere under it. Each attempt
// runs on the caller's goroutine, so cfg's tracer and ledger are final when
// RunSupervised returns. The supervisor recovers panics of that goroutine
// only, and that is enough: Run starts no goroutines — ranks step in-line
// (mpisim.World.Execute) — so a panic in a strategy's Apply, a device's
// Execute, a fault hook or a sampler poll on any rank unwinds through Run
// and counts as one failed attempt (TestSupervisedRunSurvivesRankPanic).
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
