package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"

	"sphenergy/internal/cluster"
	"sphenergy/internal/faults"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/mpisim"
	"sphenergy/internal/recovery"
)

// RunRecovery wires a run into the recovery layer. Controller receives the
// step-boundary hooks (autosave, watchdog heartbeat, budget checks);
// Resume, when non-nil, is the snapshot the run restores before stepping.
// Both are normally provided by recovery.Supervise via RunSupervised, but
// a caller wanting durability without supervision can construct them
// directly.
type RunRecovery struct {
	Controller *recovery.Controller
	Resume     *recovery.Resume
}

// RecoveryInfo is the Result-level recovery summary: how many snapshots
// this attempt wrote, and the newest one's path. The restore a run started
// from is in recovery.Outcome; why it stopped early is
// Controller.StopCause.
type RecoveryInfo struct {
	Checkpoints    int
	LastCheckpoint string
}

// checkpointLayout guards the gob payload layout, separately from the
// store's envelope version: the envelope knows bytes, this knows fields. gob
// silently drops a field the decoding type lacks, so a payload is restored
// only under the layout it was written with.
var checkpointLayout = layoutDigest(reflect.TypeOf(runCheckpoint{}))

// layoutDigest is a digest of the field names and kinds gob encodes for t,
// recursing through structs, slices, arrays, maps and pointers: any field
// added, dropped, renamed or retyped changes it. The recursion assumes no
// type contains itself, which holds for runCheckpoint.
func layoutDigest(t reflect.Type) string {
	var b strings.Builder
	writeLayout(&b, t)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

func writeLayout(b *strings.Builder, t reflect.Type) {
	switch t.Kind() {
	case reflect.Struct:
		b.WriteString("{")
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				b.WriteString(f.Name + " ")
				writeLayout(b, f.Type)
				b.WriteString(";")
			}
		}
		b.WriteString("}")
	case reflect.Slice:
		b.WriteString("[]")
		writeLayout(b, t.Elem())
	case reflect.Array:
		fmt.Fprintf(b, "[%d]", t.Len())
		writeLayout(b, t.Elem())
	case reflect.Map:
		b.WriteString("map[")
		writeLayout(b, t.Key())
		b.WriteString("]")
		writeLayout(b, t.Elem())
	case reflect.Pointer:
		b.WriteString("*")
		writeLayout(b, t.Elem())
	default:
		b.WriteString(t.Kind().String())
	}
}

// runFingerprint pins a checkpoint to the configuration that produced it.
// Restoring under any other configuration would silently diverge, so a
// mismatch is an error, not a warning.
type runFingerprint struct {
	Layout           string // checkpointLayout of the writing build
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
		Layout:           checkpointLayout,
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

// strategyState is one rank's frequency-strategy checkpoint. Only ManDyn
// carries mutable state (the redundant-set elision clocks); the static
// strategies are pure functions of their config.
type strategyState struct {
	IsManDyn    bool
	LastReqMHz  int
	LastApplied int
}

// setupEnergies is the job-setup phase's energy carve-out, needed by the
// report builder to keep loop-only totals correct across a restore.
type setupEnergies struct {
	GPU, CPU, Mem, Other, Total float64
}

// runCheckpoint is the complete restorable state of a run at a step
// boundary. Everything the model's forward evolution reads is here; pure
// observability (tracer spans, metrics, sampler rings, ledger) is
// deliberately not — a resumed run's *model* is bit-identical, while its
// observability streams document each attempt separately.
type runCheckpoint struct {
	Fp runFingerprint

	// NextStep is the first step the restored run executes.
	NextStep int
	// T0 is the virtual time at loop start of the original attempt, so
	// wall time spans attempts.
	T0         float64
	StepBounds []float64
	// Load is the survivor load multiplier at the boundary.
	Load  float64
	Setup setupEnergies

	World mpisim.WorldState
	Nodes []cluster.NodeState
	// Profiles carries each rank's instr.RankProfile as its canonical JSON
	// wire form (function order preserved; Go's float formatting is exact
	// round-trip, so restored profiles are bit-identical).
	Profiles   [][]byte
	Strategies []strategyState
	// Resilient and Injectors are present only when a fault plan was
	// active; injector states are ordered sensor, clock, rank, node.
	Resilient []freqctl.ResilientState
	Injectors []faults.InjectorState
	Failures  []RankFailure
}

// captureCheckpoint snapshots the run at a step boundary, when no phase is
// open, so every State() sees a quiescent model.
func captureCheckpoint(cfg Config, system *cluster.System, world *mpisim.World,
	ranks []*rankCtx, fs *faultState, nextStep int, t0 float64,
	stepBounds []float64, load float64, setup setupEnergies) (*runCheckpoint, error) {

	cp := &runCheckpoint{
		Fp:         fingerprintOf(cfg, ranks[0].strategy.Name()),
		NextStep:   nextStep,
		T0:         t0,
		StepBounds: append([]float64(nil), stepBounds...),
		Load:       load,
		Setup:      setup,
		World:      world.State(),
	}
	for _, n := range system.Nodes {
		cp.Nodes = append(cp.Nodes, n.State())
	}
	for _, rc := range ranks {
		b, err := json.Marshal(rc.profile)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint profile rank %d: %w", rc.profile.Rank, err)
		}
		cp.Profiles = append(cp.Profiles, b)
		var ss strategyState
		if md, ok := rc.strategy.(*freqctl.ManDyn); ok {
			ss.IsManDyn = true
			ss.LastReqMHz, ss.LastApplied = md.State()
		}
		cp.Strategies = append(cp.Strategies, ss)
	}
	if fs != nil {
		for _, rs := range fs.resilient {
			cp.Resilient = append(cp.Resilient, rs.State())
		}
		for _, in := range fs.injectors() {
			cp.Injectors = append(cp.Injectors, in.State())
		}
		cp.Failures = append([]RankFailure(nil), fs.failures...)
	}
	return cp, nil
}

// encode writes the checkpoint as a gob stream (the store wraps it in the
// checksummed envelope).
func (cp *runCheckpoint) encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(cp)
}

// decodeCheckpoint parses a store payload back into a checkpoint.
func decodeCheckpoint(payload []byte) (*runCheckpoint, error) {
	var cp runCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&cp); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint: %w", err)
	}
	return &cp, nil
}

// resumedState is what the runner's loop needs back after a restore.
type resumedState struct {
	nextStep   int
	t0         float64
	stepBounds []float64
	load       float64
	setup      setupEnergies
}

// restoreRun installs a checkpoint into a freshly constructed run. It must
// run after rank construction (setters, strategies, fault wiring) and
// before the sampler's baseline poll and the setup phase, both of which
// the resumed run skips — the restored state already contains their
// effects.
func restoreRun(resume *recovery.Resume, cfg Config, system *cluster.System,
	world *mpisim.World, ranks []*rankCtx, fs *faultState) (*resumedState, error) {

	cp, err := decodeCheckpoint(resume.Payload)
	if err != nil {
		return nil, err
	}
	want := fingerprintOf(cfg, ranks[0].strategy.Name())
	if cp.Fp.Layout != want.Layout {
		return nil, fmt.Errorf("core: checkpoint %s has payload layout %q, this build reads layout %q",
			resume.Snapshot.Path, cp.Fp.Layout, want.Layout)
	}
	if cp.Fp != want {
		return nil, fmt.Errorf("core: checkpoint %s was written by a different configuration (have %+v, want %+v)",
			resume.Snapshot.Path, cp.Fp, want)
	}
	if cp.NextStep < 0 || cp.NextStep > cfg.Steps {
		return nil, fmt.Errorf("core: checkpoint next step %d outside run of %d steps", cp.NextStep, cfg.Steps)
	}
	if len(cp.Nodes) != len(system.Nodes) || len(cp.Profiles) != len(ranks) || len(cp.Strategies) != len(ranks) {
		return nil, fmt.Errorf("core: checkpoint shape mismatch: %d nodes / %d profiles for %d nodes / %d ranks",
			len(cp.Nodes), len(cp.Profiles), len(system.Nodes), len(ranks))
	}

	if err := world.Restore(cp.World); err != nil {
		return nil, fmt.Errorf("core: restore world: %w", err)
	}
	for i, n := range system.Nodes {
		if err := n.Restore(cp.Nodes[i]); err != nil {
			return nil, fmt.Errorf("core: restore: %w", err)
		}
	}
	for r, rc := range ranks {
		// In-place unmarshal keeps the profile pointer every instrumentation
		// layer captured at construction.
		if err := json.Unmarshal(cp.Profiles[r], rc.profile); err != nil {
			return nil, fmt.Errorf("core: restore profile rank %d: %w", r, err)
		}
		md, isMD := rc.strategy.(*freqctl.ManDyn)
		if isMD != cp.Strategies[r].IsManDyn {
			return nil, fmt.Errorf("core: restore strategy rank %d: checkpoint and run disagree on ManDyn", r)
		}
		if isMD {
			md.SetState(cp.Strategies[r].LastReqMHz, cp.Strategies[r].LastApplied)
		}
	}
	if fs != nil {
		if len(cp.Resilient) != len(fs.resilient) {
			return nil, fmt.Errorf("core: restore: %d resilient-setter states for %d ranks",
				len(cp.Resilient), len(fs.resilient))
		}
		for r, rs := range fs.resilient {
			rs.RestoreState(cp.Resilient[r])
		}
		injectors := fs.injectors()
		if len(cp.Injectors) != len(injectors) {
			return nil, fmt.Errorf("core: restore: %d injector states for %d injectors",
				len(cp.Injectors), len(injectors))
		}
		for i, in := range injectors {
			if err := in.Restore(cp.Injectors[i]); err != nil {
				return nil, fmt.Errorf("core: restore: %w", err)
			}
		}
		// A step-pinned rank crash that killed the previous attempt would
		// re-fire on replay and wedge recovery; disarm them (transient-crash
		// semantics — the restart models a repaired rank).
		for _, in := range fs.rankInj {
			in.DisarmPinnedCrashes()
		}
		fs.failures = append(fs.failures[:0], cp.Failures...)
	} else if len(cp.Resilient) > 0 || len(cp.Injectors) > 0 {
		return nil, fmt.Errorf("core: checkpoint carries fault state but the run has no fault plan")
	}

	return &resumedState{
		nextStep:   cp.NextStep,
		t0:         cp.T0,
		stepBounds: append([]float64(nil), cp.StepBounds...),
		load:       cp.Load,
		setup:      cp.Setup,
	}, nil
}

// injectors returns every injector of the run in checkpoint order:
// sensor, clock, rank, node.
func (fs *faultState) injectors() []*faults.Injector {
	var all []*faults.Injector
	all = append(all, fs.sensorInj...)
	all = append(all, fs.clockInj...)
	all = append(all, fs.rankInj...)
	all = append(all, fs.nodeInj...)
	return all
}
