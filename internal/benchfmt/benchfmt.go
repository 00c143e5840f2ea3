// Package benchfmt defines the JSON schema of the tracked SPH benchmark
// results (BENCH_sph.json): the shared contract between cmd/sphbench,
// which writes it, and cmd/perfgate, which diffs a fresh run against the
// committed baseline. Field additions are backward-compatible; renames are
// schema breaks and need a coordinated baseline refresh.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"

	"sphenergy/internal/atomicio"
)

// PassNames fixes the order and JSON keys of the timed pipeline passes
// (mirrors sph.PassNames; kept here as the schema's own vocabulary so the
// gate does not need the compute layer).
var PassNames = []string{
	"find_neighbors",
	"xmass",
	"gradh",
	"eos",
	"iad",
	"av_switches",
	"momentum_energy",
	"timestep",
	"update",
}

// TotalKey is the synthetic "pass" holding the whole-step cost.
const TotalKey = "total"

// FoldedPasses are the pair-interaction passes that stream the folded pair
// list and visit each pair once; the parallel-efficiency floor is
// expressed over their summed cost.
var FoldedPasses = []string{"xmass", "gradh", "iad", "momentum_energy"}

// FoldedNs sums the folded pair-interaction passes of a per-pass timing
// map, in ns per particle per step.
func FoldedNs(ns map[string]float64) float64 {
	sum := 0.0
	for _, p := range FoldedPasses {
		sum += ns[p]
	}
	return sum
}

// ModeResult is one pipeline variant's timing at one problem size.
type ModeResult struct {
	// NsPerParticleStep maps each pass (plus "total") to nanoseconds per
	// particle per step, averaged over the measured steps. On the
	// neighbor_list mode find_neighbors is the amortized cost across
	// rebuild and refresh steps.
	NsPerParticleStep map[string]float64 `json:"ns_per_particle_step"`
	StepMs            float64            `json:"step_ms"`
	// AllocsPerStep is the mean heap allocation count per measured step
	// (runtime.MemStats.Mallocs delta), the 0-alloc hot-loop regression
	// tripwire.
	AllocsPerStep float64 `json:"allocs_per_step,omitempty"`
	// neighbor_list extras: how often the candidate list was rebuilt over
	// the measured steps, the mean steps between rebuilds, and the
	// find_neighbors cost split by step kind.
	Skin                 float64 `json:"skin,omitempty"`
	Rebuilds             int     `json:"rebuilds,omitempty"`
	Refreshes            int     `json:"refreshes,omitempty"`
	RebuildIntervalSteps float64 `json:"rebuild_interval_steps,omitempty"`
	RebuildNsPerParticle float64 `json:"find_neighbors_rebuild_ns_per_particle,omitempty"`
	RefreshNsPerParticle float64 `json:"find_neighbors_refresh_ns_per_particle,omitempty"`
}

// SweepPoint is one GOMAXPROCS setting of the multicore sweep, run on the
// neighbor_list mode.
type SweepPoint struct {
	Procs             int                `json:"procs"`
	NsPerParticleStep map[string]float64 `json:"ns_per_particle_step"`
	StepMs            float64            `json:"step_ms"`
	// SpeedupVs1 is the 1-proc step time over this point's step time.
	SpeedupVs1 float64 `json:"speedup_vs_1"`
	// Efficiency maps each pass (plus "total") to its parallel efficiency
	// t1/(P·tP) against the sweep's 1-proc point — 1.0 is perfect scaling.
	Efficiency map[string]float64 `json:"parallel_efficiency"`
	// Skipped marks sweep points whose worker count exceeds the machine's
	// logical CPUs: running them would measure oversubscription, not
	// scaling, so sphbench records the point without timings instead.
	Skipped bool `json:"skipped,omitempty"`
}

// SizeResult is one problem size's measurement of the reference and the
// production pipeline.
type SizeResult struct {
	NSide    int                   `json:"n_side"`
	N        int                   `json:"n"`
	NgTarget int                   `json:"ng_target"`
	Warmup   int                   `json:"warmup_steps"`
	Steps    int                   `json:"measured_steps"`
	Modes    map[string]ModeResult `json:"modes"`
	// SpeedupTotal is closure_walk step time over neighbor_list step time.
	SpeedupTotal float64 `json:"speedup_total"`
	// Sweep holds the optional GOMAXPROCS sweep (-gomaxprocs), ascending
	// by Procs.
	Sweep []SweepPoint `json:"gomaxprocs_sweep,omitempty"`
}

// Output is the whole benchmark file.
type Output struct {
	Benchmark  string `json:"benchmark"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// NumCPU records the machine's logical CPU count at measurement time;
	// the gate uses it to skip multicore-efficiency assertions on hosts
	// that cannot run the sweep's worker counts in parallel.
	NumCPU int          `json:"num_cpu,omitempty"`
	Sizes  []SizeResult `json:"sizes"`
}

// Size returns the result for one lattice side, nil when absent.
func (o *Output) Size(nSide int) *SizeResult {
	for i := range o.Sizes {
		if o.Sizes[i].NSide == nSide {
			return &o.Sizes[i]
		}
	}
	return nil
}

// ReadFile loads and validates a benchmark file.
func ReadFile(path string) (*Output, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	var o Output
	if err := json.Unmarshal(data, &o); err != nil {
		return nil, fmt.Errorf("benchfmt: parse %s: %w", path, err)
	}
	if o.Benchmark == "" || len(o.Sizes) == 0 {
		return nil, fmt.Errorf("benchfmt: %s is not a benchmark file (empty benchmark/sizes)", path)
	}
	return &o, nil
}

// WriteFile writes the benchmark as indented JSON.
func (o *Output) WriteFile(path string) error {
	data, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return fmt.Errorf("benchfmt: %w", err)
	}
	data = append(data, '\n')
	if err := atomicio.WriteFileBytes(path, data); err != nil {
		return fmt.Errorf("benchfmt: %w", err)
	}
	return nil
}
