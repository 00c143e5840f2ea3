// Package core is the paper's primary contribution assembled over the
// substrates: an instrumented SPH-EXA-style time-stepping loop that
// measures per-function, per-device energy through PMT/pm_counters and
// controls GPU application clocks per function (ManDyn), executed against
// the simulated cluster at paper scale in virtual time.
package core

import (
	"fmt"

	"sphenergy/internal/gpusim"
)

// SimKind selects the workload.
type SimKind string

// Workloads of Table I, plus the extension hook for other codes.
const (
	Turbulence SimKind = "turbulence"
	Evrard     SimKind = "evrard"
	// Custom selects a caller-supplied pipeline (Config.CustomPipeline) —
	// the paper's future-work direction of applying the method to other
	// GPU-accelerated simulation codes.
	Custom SimKind = "custom"
)

// CommKind classifies the communication a function performs after its
// kernels complete.
type CommKind int

// Communication patterns.
const (
	CommNone       CommKind = iota
	CommHalo                // nearest-neighbor halo exchange
	CommAllreduce           // small global reduction (Timestep)
	CommDomainSync          // SFC assignment broadcast + particle migration
)

// FuncModel characterizes one instrumented SPH-EXA function: the GPU work
// per particle it performs, its launch pattern, the host-side utilization
// while it runs, and the communication that follows it. The constants are
// calibrated so that per-function time and energy shares reproduce the
// paper's Figs. 5 and 8 (the scorecard's rows, internal/experiments).
type FuncModel struct {
	Name string

	// GPU kernel shape. Ng-suffixed terms scale with the neighbor count.
	FlopsPerPart, FlopsPerPartNg float64
	BytesPerPart, BytesPerPartNg float64

	// Launches per step. DomainDecompAndSync launches many lightweight
	// kernels — the Fig. 9 pattern.
	Launches int

	// ItemFraction scales the number of work items relative to the local
	// particle count (tree kernels touch fewer items).
	ItemFraction float64

	// Eff is the achieved fraction of device peak FLOPS per vendor;
	// the gap between Nvidia and AMD encodes the code-maturity difference
	// the paper observes on LUMI-G (§IV-B).
	EffNvidia, EffAMD float64

	// Host activity while the function runs (drives CPU/memory meters).
	CPUUtil, MemUtil float64

	// Communication after the kernels.
	Comm             CommKind
	CommBytesPerPart float64 // halo/migration volume per local particle
}

func (f FuncModel) eff(vendor gpusim.Vendor) float64 {
	if vendor == gpusim.AMD {
		return f.EffAMD
	}
	return f.EffNvidia
}

// Kernel builds the GPU kernel descriptor for this function at a given
// local particle count and neighbor count.
func (f FuncModel) Kernel(nLocal float64, ng int, vendor gpusim.Vendor) gpusim.KernelDesc {
	items := nLocal * f.ItemFraction
	if f.ItemFraction == 0 {
		items = nLocal
	}
	return gpusim.KernelDesc{
		Name:         f.Name,
		Items:        items,
		FlopsPerItem: workScale * (f.FlopsPerPart + f.FlopsPerPartNg*float64(ng)),
		BytesPerItem: workScale * (f.BytesPerPart + f.BytesPerPartNg*float64(ng)),
		Launches:     f.Launches,
		EffFactor:    f.eff(vendor),
	}
}

// workScale is a global work multiplier mapping the per-particle operation
// counts of the Go reference implementation onto the heavier production
// kernels (higher-order kernels, larger neighbor stencils, extra passes) so
// that absolute step times and run energies land at the paper's scale.
const workScale = 3.0

// Function names, matching the paper's figures.
const (
	FnDomainDecomp  = "DomainDecompAndSync"
	FnFindNeighbors = "FindNeighbors"
	FnXMass         = "XMass"
	FnGradh         = "NormalizationGradh"
	FnEOS           = "EquationOfState"
	FnIAD           = "IADVelocityDivCurl"
	FnAVSwitches    = "AVSwitches"
	FnMomentum      = "MomentumEnergy"
	FnTimestep      = "Timestep"
	FnUpdate        = "UpdateQuantities"
	FnGravity       = "Gravity"
)

// TurbulencePipeline returns the instrumented function sequence of one
// Subsonic Turbulence time-step. Workload constants are per particle (and
// per neighbor for the Ng terms); they were set from operation counts of
// the Go SPH implementation in internal/sph and calibrated against the
// paper's measured shares.
func TurbulencePipeline() []FuncModel {
	return []FuncModel{
		{
			Name: FnDomainDecomp,
			// Many lightweight kernels: SFC keys, sort passes, sync buffers.
			FlopsPerPart: 150, BytesPerPart: 1500,
			Launches: 64, ItemFraction: 1,
			EffNvidia: 0.45, EffAMD: 0.25,
			CPUUtil: 0.55, MemUtil: 0.35,
			Comm: CommDomainSync, CommBytesPerPart: 4.0,
		},
		{
			Name:         FnFindNeighbors,
			FlopsPerPart: 40, FlopsPerPartNg: 30,
			BytesPerPart: 64, BytesPerPartNg: 25,
			Launches: 2, ItemFraction: 1,
			EffNvidia: 0.50, EffAMD: 0.16,
			CPUUtil: 0.10, MemUtil: 0.30,
		},
		{
			Name:           FnXMass,
			FlopsPerPartNg: 17, BytesPerPartNg: 22,
			BytesPerPart: 48,
			Launches:     1, ItemFraction: 1,
			EffNvidia: 0.50, EffAMD: 0.16,
			CPUUtil: 0.08, MemUtil: 0.30,
			Comm: CommHalo, CommBytesPerPart: 1.6,
		},
		{
			Name:           FnGradh,
			FlopsPerPartNg: 16, BytesPerPartNg: 21,
			BytesPerPart: 40,
			Launches:     1, ItemFraction: 1,
			EffNvidia: 0.50, EffAMD: 0.16,
			CPUUtil: 0.08, MemUtil: 0.28,
		},
		{
			Name:         FnEOS,
			FlopsPerPart: 24, BytesPerPart: 72,
			Launches: 1, ItemFraction: 1,
			EffNvidia: 0.55, EffAMD: 0.22,
			CPUUtil: 0.06, MemUtil: 0.25,
		},
		{
			Name:           FnIAD,
			FlopsPerPartNg: 96, BytesPerPartNg: 24,
			BytesPerPart: 56,
			Launches:     2, ItemFraction: 1,
			EffNvidia: 0.50, EffAMD: 0.13,
			CPUUtil: 0.08, MemUtil: 0.22,
			Comm: CommHalo, CommBytesPerPart: 2.4,
		},
		{
			Name:         FnAVSwitches,
			FlopsPerPart: 30, BytesPerPart: 88,
			Launches: 1, ItemFraction: 1,
			EffNvidia: 0.50, EffAMD: 0.22,
			CPUUtil: 0.06, MemUtil: 0.24,
		},
		{
			Name:           FnMomentum,
			FlopsPerPartNg: 170, BytesPerPartNg: 32,
			BytesPerPart: 64,
			Launches:     1, ItemFraction: 1,
			EffNvidia: 0.65, EffAMD: 0.07,
			CPUUtil: 0.08, MemUtil: 0.20,
			Comm: CommHalo, CommBytesPerPart: 2.0,
		},
		{
			Name:         FnTimestep,
			FlopsPerPart: 16, BytesPerPart: 40,
			Launches: 2, ItemFraction: 1,
			EffNvidia: 0.50, EffAMD: 0.22,
			CPUUtil: 0.10, MemUtil: 0.15,
			Comm: CommAllreduce,
		},
		{
			Name:         FnUpdate,
			FlopsPerPart: 36, BytesPerPart: 150,
			Launches: 1, ItemFraction: 1,
			EffNvidia: 0.55, EffAMD: 0.22,
			CPUUtil: 0.06, MemUtil: 0.35,
		},
	}
}

// EvrardPipeline returns the function sequence of one Evrard Collapse
// time-step: the Turbulence pipeline plus Barnes–Hut gravity (the paper
// chose Evrard precisely because it adds gravity).
func EvrardPipeline() []FuncModel {
	p := TurbulencePipeline()
	grav := FuncModel{
		Name: FnGravity,
		// Tree traversal: high arithmetic intensity, branchy (lower eff).
		FlopsPerPart: 260, FlopsPerPartNg: 38,
		BytesPerPart: 96, BytesPerPartNg: 5,
		Launches: 3, ItemFraction: 1,
		EffNvidia: 0.40, EffAMD: 0.10,
		CPUUtil: 0.10, MemUtil: 0.18,
		Comm: CommHalo, CommBytesPerPart: 1.0,
	}
	// Gravity runs after IADVelocityDivCurl, before MomentumEnergy.
	out := make([]FuncModel, 0, len(p)+1)
	for _, f := range p {
		out = append(out, f)
		if f.Name == FnAVSwitches {
			out = append(out, grav)
		}
	}
	return out
}

// Pipeline returns the pipeline for a simulation kind.
func Pipeline(kind SimKind) ([]FuncModel, error) {
	switch kind {
	case Turbulence:
		return TurbulencePipeline(), nil
	case Evrard:
		return EvrardPipeline(), nil
	}
	return nil, fmt.Errorf("core: unknown simulation kind %q", kind)
}

// PipelineFunctionNames lists the instrumented function names of a kind.
func PipelineFunctionNames(kind SimKind) []string {
	p, err := Pipeline(kind)
	if err != nil {
		return nil
	}
	names := make([]string, len(p))
	for i, f := range p {
		names[i] = f.Name
	}
	return names
}
