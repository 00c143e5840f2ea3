package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"sphenergy/internal/recovery"
)

// RunRecovery wires a run into the recovery layer. Controller receives the
// step-boundary hooks (autosave, budget checks, stop requests);
// Resume, when non-nil, is the snapshot the run resumes from by replaying
// the steps before it. Both are normally provided by recovery.Supervise
// via RunSupervised, but a caller wanting durability without supervision
// can construct them directly.
type RunRecovery struct {
	Controller *recovery.Controller
	Resume     *recovery.Resume
}

// RecoveryInfo is the Result-level recovery summary: how many snapshots
// this attempt wrote, and the newest one's path. The snapshot a run resumed
// from is in recovery.Outcome; why it stopped early is
// Controller.StopCause.
type RecoveryInfo struct {
	Checkpoints    int
	LastCheckpoint string
}

// runFingerprint pins a checkpoint to the configuration that produced it.
// Resuming under any other configuration would replay a different run, so
// a mismatch is an error, not a warning.
type runFingerprint struct {
	Sim              string
	System           string
	Ranks            int
	Steps            int
	ParticlesPerRank float64
	Ng               int
	Seed             uint64
	SetupS           float64
	Strategy         string
	Degradation      string
	FaultPlan        string
	CustomFuncs      int
}

func fingerprintOf(cfg Config, strategyName string) runFingerprint {
	fp := runFingerprint{
		Sim:              string(cfg.Sim),
		System:           cfg.System.Name,
		Ranks:            cfg.Ranks,
		Steps:            cfg.Steps,
		ParticlesPerRank: cfg.ParticlesPerRank,
		Ng:               cfg.Ng,
		Seed:             cfg.Seed,
		SetupS:           cfg.SetupS,
		Strategy:         strategyName,
		Degradation:      cfg.Degradation,
		CustomFuncs:      len(cfg.CustomPipeline),
	}
	if cfg.Faults.Active() {
		fp.FaultPlan = cfg.Faults.Name
	}
	return fp
}

// runCheckpoint is a run at a step boundary, held as the trajectory that
// led there. A run is a pure function of its Config (virtual time, seeded
// streams), so a resumed run rebuilds itself as a fresh one and replays
// steps 0 … NextStep−1; the trajectory is what the replay must reproduce
// bit for bit before the run may continue. A payload that lacks it — one
// written before runs resumed by replay — never reproduces it and is
// refused.
type runCheckpoint struct {
	Fp runFingerprint
	// NextStep is the first step the resumed run executes for real.
	NextStep int
	// StepBounds is the virtual time at the end of each step before
	// NextStep.
	StepBounds []float64
	// EnergyJ is the allocation's total energy at the last of them.
	EnergyJ float64
	// DisarmedFrom is the lowest step from which an attempt in the chain
	// that led here disarmed the step-pinned rank crashes; 0 when none did.
	DisarmedFrom int
}

// encode writes the checkpoint as a gob stream (the store wraps it in the
// checksummed envelope).
func (cp *runCheckpoint) encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(cp)
}

// loadCheckpoint decodes a snapshot's payload and checks that this run can
// replay it: the same configuration, and one recorded boundary for each
// step before NextStep, which lies inside the run.
func loadCheckpoint(resume *recovery.Resume, cfg Config, strategyName string) (*runCheckpoint, error) {
	path := resume.Snapshot.Path
	var cp runCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(resume.Payload)).Decode(&cp); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint %s: %w", path, err)
	}
	if want := fingerprintOf(cfg, strategyName); cp.Fp != want {
		return nil, fmt.Errorf("core: checkpoint %s was written by a different configuration (have %+v, want %+v)",
			path, cp.Fp, want)
	}
	if cp.NextStep < 1 || cp.NextStep > cfg.Steps || len(cp.StepBounds) != cp.NextStep {
		return nil, fmt.Errorf("core: checkpoint %s refused: %d step boundaries recorded for next step %d of %d",
			path, len(cp.StepBounds), cp.NextStep, cfg.Steps)
	}
	return &cp, nil
}

// replayed checks the end of replayed step against the checkpoint's
// record: the boundary, and at the last replayed step the allocation's
// energy, must equal it bit for bit. failed is the error the step raised,
// if any, which the recorded run did not. The error names the snapshot and
// the step.
func (cp *runCheckpoint) replayed(path string, step int, failed error, boundS, energyJ float64) error {
	switch {
	case failed != nil:
		return fmt.Errorf("core: checkpoint %s refused: replay of step %d failed: %w", path, step, failed)
	case boundS != cp.StepBounds[step]:
		return fmt.Errorf("core: checkpoint %s refused: replayed step %d ends at %v s, the checkpoint records %v s",
			path, step, boundS, cp.StepBounds[step])
	case step == cp.NextStep-1 && energyJ != cp.EnergyJ:
		return fmt.Errorf("core: checkpoint %s refused: replayed step %d ends at %v J, the checkpoint records %v J",
			path, step, energyJ, cp.EnergyJ)
	}
	return nil
}
