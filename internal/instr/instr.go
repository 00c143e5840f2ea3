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
	"sort"
	"sync"

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

// TotalJ returns the function's total energy across devices.
func (f FunctionStats) TotalJ() float64 { return f.GPUJ + f.CPUJ + f.MemJ + f.OtherJ }

// RankProfile holds all function stats of one MPI rank. Serialization goes
// through MarshalJSON/UnmarshalJSON, which carry the first-recorded
// function order explicitly so it survives a write/read round trip.
type RankProfile struct {
	Rank      int
	Functions map[string]*FunctionStats
	order     []string
	// slots holds, by the caller's own index, the stats RecordAt last
	// resolved there: a caller that records the same sequence of functions
	// every step pays the by-name lookup once per function.
	slots []*FunctionStats
	mu    sync.Mutex
}

// rankProfileJSON is the wire form of RankProfile: the same data plus the
// recording order, which a Go map cannot preserve on its own.
type rankProfileJSON struct {
	Rank          int                       `json:"rank"`
	FunctionOrder []string                  `json:"function_order,omitempty"`
	Functions     map[string]*FunctionStats `json:"functions"`
}

// MarshalJSON implements json.Marshaler.
func (p *RankProfile) MarshalJSON() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return json.Marshal(rankProfileJSON{
		Rank:          p.Rank,
		FunctionOrder: p.order,
		Functions:     p.Functions,
	})
}

// UnmarshalJSON implements json.Unmarshaler, restoring the recording order
// from the function_order field. Functions missing from the list (older or
// hand-edited reports) sort after the listed ones; listed names without
// stats are dropped, and so is the per-call "series" field older reports
// may carry.
func (p *RankProfile) UnmarshalJSON(data []byte) error {
	var aux rankProfileJSON
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Rank = aux.Rank
	p.Functions = aux.Functions
	if p.Functions == nil {
		p.Functions = map[string]*FunctionStats{}
	}
	clear(p.slots) // they point into the map just replaced
	p.order = p.order[:0]
	seen := map[string]bool{}
	for _, n := range aux.FunctionOrder {
		if _, ok := p.Functions[n]; ok && !seen[n] {
			p.order = append(p.order, n)
			seen[n] = true
		}
	}
	var extra []string
	for n := range p.Functions {
		if !seen[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	p.order = append(p.order, extra...)
	return nil
}

// NewRankProfile creates an empty profile for a rank.
func NewRankProfile(rank int) *RankProfile {
	return &RankProfile{Rank: rank, Functions: map[string]*FunctionStats{}}
}

// RecordAt adds one region measurement of fn to the profile. The caller
// runs a fixed sequence of functions over and over: slot is fn's position in
// that sequence, and the profile remembers which stats it stands for. The
// slot is a hint, never an identity — a function enters the profile, and its
// recording order, when it is first recorded, and a slot given another name
// is looked up afresh — so any slots leave the profile a lookup by name
// would.
func (p *RankProfile) RecordAt(slot int, fn string, timeS, gpuJ, cpuJ, memJ, otherJ, commS float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.slots) <= slot {
		p.slots = append(p.slots, nil)
	}
	st := p.slots[slot]
	if st == nil || st.Name != fn {
		st = p.stats(fn)
		p.slots[slot] = st
	}
	st.Calls++
	st.TimeS += timeS
	st.GPUJ += gpuJ
	st.CPUJ += cpuJ
	st.MemJ += memJ
	st.OtherJ += otherJ
	st.CommS += commS
}

// stats returns fn's entry, creating it at the end of the recording order;
// caller holds p.mu.
func (p *RankProfile) stats(fn string) *FunctionStats {
	st, ok := p.Functions[fn]
	if !ok {
		st = &FunctionStats{Name: fn}
		p.Functions[fn] = st
		p.order = append(p.order, fn)
	}
	return st
}

// FunctionNames returns function names in first-recorded order.
func (p *RankProfile) FunctionNames() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.order))
	copy(out, p.order)
	return out
}

// Get returns the stats of a function (nil if never recorded).
func (p *RankProfile) Get(fn string) *FunctionStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.Functions[fn]
}

// TotalTimeS sums region time across functions.
func (p *RankProfile) TotalTimeS() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := 0.0
	for _, st := range p.Functions {
		t += st.TimeS
	}
	return t
}

// TotalGPUJ sums GPU energy across functions.
func (p *RankProfile) TotalGPUJ() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
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

// FunctionNames returns the union of function names across ranks, in rank
// 0's recording order with any extras sorted after.
func (r *Report) FunctionNames() []string {
	if len(r.Ranks) == 0 {
		return nil
	}
	names := r.Ranks[0].FunctionNames()
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	var extra []string
	for _, rp := range r.Ranks[1:] {
		for _, n := range rp.FunctionNames() {
			if !seen[n] {
				seen[n] = true
				extra = append(extra, n)
			}
		}
	}
	sort.Strings(extra)
	return append(names, extra...)
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

// ReadReport parses a report written by WriteFile. Each rank's function
// order is restored by RankProfile.UnmarshalJSON.
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
