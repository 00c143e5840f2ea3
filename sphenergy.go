// Package sphenergy is the public facade of the library: instrumented
// SPH-EXA-style astrophysics simulations with application-level energy
// measurement (PMT / Cray pm_counters / Slurm accounting) and static or
// dynamic GPU frequency scaling, reproducing Simsek, Piccinali & Ciorba,
// "Increasing Energy Efficiency of Astrophysics Simulations Through GPU
// Frequency Scaling" (SC 2024).
//
// # Quick start
//
//	cfg := sphenergy.Config{
//		System:           sphenergy.MiniHPC(),
//		Ranks:            1,
//		Sim:              sphenergy.Turbulence,
//		ParticlesPerRank: 450 * 450 * 450,
//		Steps:            20,
//	}
//	res, err := sphenergy.Run(cfg)
//	// res.Report: per-rank, per-function time and energy
//	// res.WallTimeS, res.GPUEnergyJ(): headline metrics
//
// # Frequency strategies
//
// The four policies the paper compares are freqctl strategies:
//
//	sphenergy.Baseline()        // application clocks locked at max
//	sphenergy.StaticMHz(1005)   // static down-scaling
//	sphenergy.DVFS()            // hardware governor
//	sphenergy.ManDyn(table)     // per-function clocks (the contribution)
//
// A tuned per-function table comes from the KernelTuner-style search in
// TuneFrequencies.
//
// Everything underneath — the GPU device model, the PMT sensors over its
// energy counter and the pm_counters files, the MPI-style rank runtime,
// the real SPH solver —
// lives in internal/ packages; this package re-exports the surface a
// downstream user needs.
package sphenergy

import (
	"errors"
	"os"
	"path/filepath"

	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/events"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/instr"
	"sphenergy/internal/telemetry"
	"sphenergy/internal/tuner"
)

// Config aliases the runner configuration.
type Config = core.Config

// Result aliases the runner result.
type Result = core.Result

// Report aliases the instrumentation report.
type Report = instr.Report

// SimKind selects the workload.
type SimKind = core.SimKind

// Workloads.
const (
	Turbulence = core.Turbulence
	Evrard     = core.Evrard
)

// NodeSpec aliases the node architecture description.
type NodeSpec = cluster.NodeSpec

// Strategy aliases the frequency-control strategy interface.
type Strategy = freqctl.Strategy

// Run executes an instrumented simulation run.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// Tracer aliases the telemetry span tracer: set Config.Tracer to record the
// run's timeline and export it as Chrome trace_event JSON.
type Tracer = telemetry.Tracer

// Metrics aliases the empty telemetry registry behind Config.Metrics. It
// selects nothing: no part of a run records into it, and it is not part of
// the run bundle. It stays only because the repository's benchmark sets
// Config.Metrics and times its WriteFile.
type Metrics = telemetry.Registry

// NewTracer creates a span tracer with one track per rank.
func NewTracer(ranks int) *Tracer { return telemetry.NewTracer(ranks) }

// NewMetrics creates the empty registry the benchmark sets as
// Config.Metrics; like Metrics, it selects nothing.
func NewMetrics() *Metrics { return telemetry.NewRegistry() }

// EventLedger aliases the structured decision ledger: set Config.Events to
// record every consequential runtime decision (frequency changes, tuner
// picks, sampler degradation, rank failures, budget stops) in a bounded
// ring with JSONL export.
type EventLedger = events.Ledger

// NewEventLedger creates a decision ledger; capacity <= 0 selects the
// default ring size.
func NewEventLedger(capacity int) *EventLedger { return events.NewLedger(capacity) }

// The run bundle: the files one run leaves in its output directory.
const (
	BundleReport = "report.json"  // the energy report (Report.WriteFile)
	BundleCSV    = "report.csv"   // its per-function CSV export
	BundleTrace  = "trace.json"   // the Chrome trace_event timeline
	BundleEvents = "events.jsonl" // the decision ledger
)

// WriteBundle writes a run's bundle into dir, creating it: rep as the
// report and its CSV, cfg's Tracer and Events as the trace and the ledger.
// Nil parts are skipped, so a run stopped before it has a report still
// leaves what its observers recorded. Every part is attempted; the error
// joins those that failed.
func WriteBundle(dir string, cfg Config, rep *Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var errs []error
	write := func(name string, w func(path string) error) {
		errs = append(errs, w(filepath.Join(dir, name)))
	}
	if rep != nil {
		write(BundleReport, rep.WriteFile)
		write(BundleCSV, rep.WriteCSVFile)
	}
	if cfg.Tracer != nil {
		write(BundleTrace, cfg.Tracer.WriteFile)
	}
	if cfg.Events != nil {
		write(BundleEvents, cfg.Events.WriteFile)
	}
	return errors.Join(errs...)
}

// LUMIG returns the LUMI-G node architecture of Table I.
func LUMIG() NodeSpec { return cluster.LUMIG() }

// CSCSA100 returns the CSCS-A100 node architecture of Table I.
func CSCSA100() NodeSpec { return cluster.CSCSA100() }

// MiniHPC returns the miniHPC node architecture of Table I.
func MiniHPC() NodeSpec { return cluster.MiniHPC() }

// SystemByName resolves a Table I system by name ("lumi-g", "cscs-a100",
// "minihpc").
func SystemByName(name string) (NodeSpec, error) { return cluster.SystemByName(name) }

// Baseline returns a strategy factory locking clocks at the maximum
// application clock.
func Baseline() func() Strategy {
	return func() Strategy { return freqctl.Baseline{} }
}

// StaticMHz returns a strategy factory locking clocks at a fixed value.
func StaticMHz(mhz int) func() Strategy {
	return func() Strategy { return freqctl.Static{MHz: mhz} }
}

// DVFS returns a strategy factory leaving the hardware governor in control.
func DVFS() func() Strategy {
	return func() Strategy { return freqctl.DVFS{} }
}

// ManDyn returns a strategy factory that switches application clocks per
// instrumented function using the given function→MHz table — the paper's
// dynamic approach.
func ManDyn(table map[string]int) func() Strategy {
	return func() Strategy { return &freqctl.ManDyn{Table: table} }
}

// TuneFrequencies runs the KernelTuner-style per-function frequency search
// (EDP objective, 1005 MHz up to the device maximum) for a simulation's
// pipeline on a system's GPU, returning the ManDyn table.
func TuneFrequencies(system NodeSpec, sim SimKind, particlesPerRank float64, ng int) (map[string]int, error) {
	return TuneFrequenciesObserved(system, sim, particlesPerRank, ng, nil)
}

// TuneFrequenciesObserved is TuneFrequencies with the search recorded into
// a decision ledger: every sweep measurement and winning pick is emitted as
// a tuner event carrying the predicted time/energy/power/EDP at its clock.
// A Run on the same ledger keeps these rows as its preamble, and `inspect
// decisions` joins its frequency decisions to them. A nil ledger degrades
// to the unobserved search.
func TuneFrequenciesObserved(system NodeSpec, sim SimKind, particlesPerRank float64, ng int, led *EventLedger) (map[string]int, error) {
	if ng <= 0 {
		ng = 150
	}
	pipeline, err := core.Pipeline(sim)
	if err != nil {
		return nil, err
	}
	kernels := make(map[string]gpusim.KernelDesc, len(pipeline))
	for _, fn := range pipeline {
		kernels[fn.Name] = fn.Kernel(particlesPerRank, ng, system.GPUSpec.Vendor)
	}
	table, _, err := tuner.TuneTable(kernels, tuner.Config{
		Spec:      system.GPUSpec,
		Params:    tuner.Params{MinMHz: 1005, MaxMHz: system.GPUSpec.MaxSMClockMHz},
		Objective: tuner.EDP,
		Events:    led,
	})
	return table, err
}
