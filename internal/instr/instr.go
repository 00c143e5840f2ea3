// Package instr implements SPH-EXA's low-overhead profiling hooks: named
// regions wrapping each simulation function, accumulating per-rank,
// per-function time and per-device energy. Measurements are kept in memory
// during the run and serialized to a report file at the end — the paper's
// design for avoiding perturbation of the simulation (§III-B).
package instr

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"sphenergy/internal/atomicio"
	"sphenergy/internal/attrib"
	"sphenergy/internal/faults"
)

// FunctionStats accumulates measurements for one instrumented function on
// one rank.
type FunctionStats struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	TimeS  float64 `json:"time_s"`
	GPUJ   float64 `json:"gpu_j"`
	CPUJ   float64 `json:"cpu_j"`
	MemJ   float64 `json:"mem_j"`
	OtherJ float64 `json:"other_j"`
	CommS  float64 `json:"comm_s"`
}

// RankProfile holds all function stats of one MPI rank, one entry per
// function in the order the functions were first recorded: pipeline order
// in a run, of which a rank that died early holds a prefix. A profile
// belongs to the goroutine that runs its rank, so it has no lock; the
// report's writers read it once that run has returned.
type RankProfile struct {
	Rank      int             `json:"rank"`
	Functions []FunctionStats `json:"functions"`
}

// NewRankProfile creates an empty profile for a rank.
func NewRankProfile(rank int) *RankProfile {
	return &RankProfile{Rank: rank, Functions: []FunctionStats{}}
}

// RecordAt adds one region measurement of fn to the profile. The caller
// runs a fixed sequence of functions over and over: slot is fn's position in
// that sequence, where the profile looks first. The slot is a hint, never an
// identity — a function enters the profile, at its end, when it is first
// recorded, and a slot holding another name is looked up by name — so any
// slots leave the profile a lookup by name would.
func (p *RankProfile) RecordAt(slot int, fn string, timeS, gpuJ, cpuJ, memJ, otherJ, commS float64) {
	var st *FunctionStats
	if slot < len(p.Functions) && p.Functions[slot].Name == fn {
		st = &p.Functions[slot]
	} else if st = p.Get(fn); st == nil {
		p.Functions = append(p.Functions, FunctionStats{Name: fn})
		st = &p.Functions[len(p.Functions)-1]
	}
	st.Calls++
	st.TimeS += timeS
	st.GPUJ += gpuJ
	st.CPUJ += cpuJ
	st.MemJ += memJ
	st.OtherJ += otherJ
	st.CommS += commS
}

// FunctionNames returns function names in first-recorded order.
func (p *RankProfile) FunctionNames() []string {
	out := make([]string, len(p.Functions))
	for i := range p.Functions {
		out[i] = p.Functions[i].Name
	}
	return out
}

// Get returns the stats of a function (nil if never recorded), valid until
// the profile records a function it has not seen.
func (p *RankProfile) Get(fn string) *FunctionStats {
	for i := range p.Functions {
		if p.Functions[i].Name == fn {
			return &p.Functions[i]
		}
	}
	return nil
}

// TotalGPUJ sums GPU energy across functions.
func (p *RankProfile) TotalGPUJ() float64 {
	t := 0.0
	for _, st := range p.Functions {
		t += st.GPUJ
	}
	return t
}

// Report is the gathered result of all ranks — what rank 0 writes to disk
// after the final MPI gather in the paper's workflow.
type Report struct {
	Simulation string         `json:"simulation"`
	System     string         `json:"system"`
	Ranks      []*RankProfile `json:"ranks"`
	// WallTimeS is the job's time-to-solution (max rank clock).
	WallTimeS float64 `json:"wall_time_s"`
	// Strategy names the frequency strategy used for the run.
	Strategy string `json:"strategy"`
	// TotalEnergyJ is whole-allocation energy including idle components.
	TotalEnergyJ float64 `json:"total_energy_j"`
	// Breakdown of allocation energy by device class.
	GPUEnergyJ   float64 `json:"gpu_energy_j"`
	CPUEnergyJ   float64 `json:"cpu_energy_j"`
	MemEnergyJ   float64 `json:"mem_energy_j"`
	OtherEnergyJ float64 `json:"other_energy_j"`
	// Attribution carries the async sampler's span-joined per-kernel and
	// per-function energy/EDP tables when the run sampled power.
	Attribution *attrib.Attribution `json:"attribution,omitempty"`
	// Validation carries the cross-source energy check (model reference vs
	// sampled sensors vs pm_counters vs Slurm accounting) when one was run.
	Validation *attrib.Validation `json:"validation,omitempty"`
	// Faults carries the fault-injection/resilience summary when the run
	// executed under a fault plan.
	Faults *faults.Report `json:"faults,omitempty"`
}

// EDP returns the energy-delay product of the run in J·s.
func (r *Report) EDP() float64 { return r.TotalEnergyJ * r.WallTimeS }

// FunctionTotal aggregates one function's stats across ranks.
func (r *Report) FunctionTotal(fn string) FunctionStats {
	out := FunctionStats{Name: fn}
	for _, rp := range r.Ranks {
		if st := rp.Get(fn); st != nil {
			out.Calls += st.Calls
			out.TimeS += st.TimeS
			out.GPUJ += st.GPUJ
			out.CPUJ += st.CPUJ
			out.MemJ += st.MemJ
			out.OtherJ += st.OtherJ
			out.CommS += st.CommS
		}
	}
	return out
}

// FunctionNames returns the function names of the rank that recorded the
// most, in its recording order: every rank runs the same pipeline, and a
// rank that died early recorded a prefix of it.
func (r *Report) FunctionNames() []string {
	var longest []string
	for _, rp := range r.Ranks {
		if names := rp.FunctionNames(); len(names) > len(longest) {
			longest = names
		}
	}
	return longest
}

// WriteJSON serializes the report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path, atomically (write-temp-then-rename).
func (r *Report) WriteFile(path string) error {
	if err := atomicio.WriteFile(path, r.WriteJSON); err != nil {
		return fmt.Errorf("instr: %w", err)
	}
	return nil
}

// ReadReport parses a report written by WriteFile. A report whose ranks
// keep their functions in a map, as reports before the list did, is refused
// with a decode error.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("instr: decode report: %w", err)
	}
	return &r, nil
}

// ReadReportFile loads a report from disk.
func ReadReportFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("instr: %w", err)
	}
	defer f.Close()
	return ReadReport(f)
}
