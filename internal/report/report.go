// Package report implements the paper's analysis-script layer: it turns raw
// instrumentation reports into per-device and per-function energy
// breakdowns, taking the system's hardware configuration into account
// (§III-B) — in particular CSCS-A100, whose nodes cannot meter memory
// separately.
package report

import (
	"fmt"
	"sort"
	"strings"

	"sphenergy/internal/cluster"
	"sphenergy/internal/instr"
	"sphenergy/internal/textplot"
)

// DeviceBreakdown is the Fig. 4 view: energy by device class.
type DeviceBreakdown struct {
	System string
	Label  string
	GPUJ   float64
	CPUJ   float64
	MemJ   float64
	OtherJ float64
	// MemorySeparate is false on systems (like CSCS-A100) that cannot meter
	// DRAM separately; their memory energy folds into Other.
	MemorySeparate bool
}

// TotalJ returns total energy.
func (d DeviceBreakdown) TotalJ() float64 { return d.GPUJ + d.CPUJ + d.MemJ + d.OtherJ }

// NewDeviceBreakdown derives the Fig. 4 breakdown from a run report. On
// systems without separate memory metering the memory energy is folded into
// Other, exactly as the paper describes for CSCS-A100.
func NewDeviceBreakdown(r *instr.Report, spec cluster.NodeSpec, label string) DeviceBreakdown {
	d := DeviceBreakdown{
		System:         spec.Name,
		Label:          label,
		GPUJ:           r.GPUEnergyJ,
		CPUJ:           r.CPUEnergyJ,
		MemorySeparate: memorySeparatelyMetered(spec),
	}
	if d.MemorySeparate {
		d.MemJ = r.MemEnergyJ
		d.OtherJ = r.OtherEnergyJ
	} else {
		d.OtherJ = r.OtherEnergyJ + r.MemEnergyJ
	}
	return d
}

// memorySeparatelyMetered reports whether the system's pm interface exposes
// a distinct memory_energy counter. LUMI-G does; the CSCS-A100 and miniHPC
// systems do not (§IV-B).
func memorySeparatelyMetered(spec cluster.NodeSpec) bool {
	return spec.Name == "LUMI-G"
}

// Render prints the breakdown as a percent-stacked bar.
func (d DeviceBreakdown) Render() string {
	parts := []textplot.Bar{
		{Label: "GPU", Value: d.GPUJ, Annotation: "J"},
		{Label: "CPU", Value: d.CPUJ, Annotation: "J"},
	}
	if d.MemorySeparate {
		parts = append(parts, textplot.Bar{Label: "Memory", Value: d.MemJ, Annotation: "J"})
	}
	parts = append(parts, textplot.Bar{Label: "Other", Value: d.OtherJ, Annotation: "J"})
	title := fmt.Sprintf("%s %s — total %.1f MJ", d.System, d.Label, d.TotalJ()/1e6)
	return textplot.PercentStack(title, parts, 60)
}

// FunctionBreakdown is the Fig. 5 view: per-function energy by device.
type FunctionBreakdown struct {
	Label     string
	Functions []FunctionShare
	GPUTotalJ float64
	CPUTotalJ float64
}

// FunctionShare is one function's share of device energy.
type FunctionShare struct {
	Name     string
	GPUJ     float64
	CPUJ     float64
	GPUShare float64 // of total GPU energy
	CPUShare float64
	TimeS    float64
}

// NewFunctionBreakdown aggregates a report into the Fig. 5 structure.
func NewFunctionBreakdown(r *instr.Report, label string) FunctionBreakdown {
	fb := FunctionBreakdown{Label: label}
	for _, name := range r.FunctionNames() {
		st := r.FunctionTotal(name)
		fb.Functions = append(fb.Functions, FunctionShare{
			Name:  name,
			GPUJ:  st.GPUJ,
			CPUJ:  st.CPUJ,
			TimeS: st.TimeS,
		})
		fb.GPUTotalJ += st.GPUJ
		fb.CPUTotalJ += st.CPUJ
	}
	for i := range fb.Functions {
		if fb.GPUTotalJ > 0 {
			fb.Functions[i].GPUShare = fb.Functions[i].GPUJ / fb.GPUTotalJ
		}
		if fb.CPUTotalJ > 0 {
			fb.Functions[i].CPUShare = fb.Functions[i].CPUJ / fb.CPUTotalJ
		}
	}
	return fb
}

// TopConsumers returns the n functions with the highest GPU energy — the
// boxed names of Fig. 5's legend.
func (fb FunctionBreakdown) TopConsumers(n int) []string {
	sorted := append([]FunctionShare(nil), fb.Functions...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].GPUJ > sorted[b].GPUJ })
	if n > len(sorted) {
		n = len(sorted)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = sorted[i].Name
	}
	return out
}

// Render prints the function breakdown as a bar chart over GPU energy.
func (fb FunctionBreakdown) Render() string {
	bars := make([]textplot.Bar, 0, len(fb.Functions))
	for _, f := range fb.Functions {
		bars = append(bars, textplot.Bar{Label: f.Name, Value: 100 * f.GPUShare, Annotation: "% of GPU energy"})
	}
	return textplot.BarChart(fmt.Sprintf("%s — per-function GPU energy", fb.Label), bars, 40)
}

// Normalized compares a set of runs against a baseline run on the
// time/energy/EDP axes — the normalization used in Figs. 6-8.
type Normalized struct {
	Name        string
	TimeRatio   float64
	EnergyRatio float64
	EDPRatio    float64
}

// Normalize computes ratios of (time, energy) pairs against a baseline.
func Normalize(name string, timeS, energyJ, baseTimeS, baseEnergyJ float64) Normalized {
	n := Normalized{Name: name}
	if baseTimeS > 0 {
		n.TimeRatio = timeS / baseTimeS
	}
	if baseEnergyJ > 0 {
		n.EnergyRatio = energyJ / baseEnergyJ
	}
	if baseTimeS > 0 && baseEnergyJ > 0 {
		n.EDPRatio = (timeS * energyJ) / (baseTimeS * baseEnergyJ)
	}
	return n
}

// RenderNormalizedTable prints normalized rows in a fixed-width table.
func RenderNormalizedTable(title string, rows []Normalized) string {
	var sb strings.Builder
	if title != "" {
		sb.WriteString(title + "\n")
	}
	fmt.Fprintf(&sb, "%-16s %10s %10s %10s\n", "configuration", "time", "energy", "EDP")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %10.4f %10.4f %10.4f\n", r.Name, r.TimeRatio, r.EnergyRatio, r.EDPRatio)
	}
	return sb.String()
}

// WeakScalingPoint is one allocation size of a weak-scaling campaign.
type WeakScalingPoint struct {
	Ranks   int
	TimeS   float64
	EnergyJ float64
	// Efficiency is T(1 unit)/T(n units) for fixed per-rank work (1.0 is
	// perfect weak scaling); EnergyPerRank normalizes the energy.
	Efficiency    float64
	EnergyPerRank float64
}

// WeakScaling derives efficiency and per-rank energy for a campaign of
// (ranks, time, energy) samples, using the smallest allocation as the
// reference. Samples must be ordered by increasing rank count.
func WeakScaling(ranks []int, timeS, energyJ []float64) []WeakScalingPoint {
	if len(ranks) == 0 || len(ranks) != len(timeS) || len(ranks) != len(energyJ) {
		return nil
	}
	out := make([]WeakScalingPoint, len(ranks))
	refT := timeS[0]
	for i := range ranks {
		out[i] = WeakScalingPoint{
			Ranks:   ranks[i],
			TimeS:   timeS[i],
			EnergyJ: energyJ[i],
		}
		if timeS[i] > 0 {
			out[i].Efficiency = refT / timeS[i]
		}
		if ranks[i] > 0 {
			out[i].EnergyPerRank = energyJ[i] / float64(ranks[i])
		}
	}
	return out
}
