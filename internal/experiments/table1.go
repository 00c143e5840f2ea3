package experiments

import (
	"fmt"
	"strings"

	"sphenergy/internal/cluster"
)

// SimulationParams is one row of Table I's simulation half.
type SimulationParams struct {
	Name            string
	ParticleCountsB []float64 // total particle counts in billions (-n)
	Steps           int       // -s
	ParticlesPerGPU float64
}

// TableIData is the full Table I content: the simulation campaigns and the
// three system descriptions.
type TableIData struct {
	Simulations []SimulationParams
	Systems     []cluster.NodeSpec
}

// TableI returns the paper's Table I, generated from the same cluster specs
// and simulation configurations every experiment uses (so the table cannot
// drift from the code).
func TableI() *TableIData {
	return &TableIData{
		Simulations: []SimulationParams{
			{
				Name:            "Subsonic Turbulence",
				ParticleCountsB: []float64{0.6, 1.2, 2.4, 4.9, 7.4, 9.2, 14.7},
				Steps:           100,
				ParticlesPerGPU: 150e6,
			},
			{
				Name:            "Evrard Collapse",
				ParticleCountsB: []float64{0.6, 1.2, 2.4, 3.2, 4.8, 7.7},
				Steps:           100,
				ParticlesPerGPU: 80e6,
			},
		},
		Systems: []cluster.NodeSpec{cluster.LUMIG(), cluster.CSCSA100(), cluster.MiniHPC()},
	}
}

// Render implements Renderable.
func (t *TableIData) Render() string {
	var b strings.Builder
	b.WriteString("TABLE I — Simulation and computing system parameters\n\n")
	fmt.Fprintf(&b, "%-22s %-38s %s\n", "Simulation", "Parameters", "Info")
	for _, s := range t.Simulations {
		counts := make([]string, len(s.ParticleCountsB))
		for i, c := range s.ParticleCountsB {
			counts[i] = fmt.Sprintf("%.1f", c)
		}
		fmt.Fprintf(&b, "%-22s -n %s B particles -s %d      %.0f M particles/GPU | %d steps\n",
			s.Name, strings.Join(counts, " | "), s.Steps, s.ParticlesPerGPU/1e6, s.Steps)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-12s %-58s %s\n", "System", "Hardware of each Node", "GPU Frequencies")
	for _, sys := range t.Systems {
		hw := fmt.Sprintf("%d x %d-core %s, %.0f GB mem, %d x %s",
			sys.NumCPUs, sys.CPUModel.Cores, sys.CPUModel.Name,
			sys.MemModel.SizeGB, sys.NumGPUDies/sys.DiesPerCard, sys.GPUSpec.Name)
		if sys.DiesPerCard > 1 {
			hw += fmt.Sprintf(" (%d dies/card)", sys.DiesPerCard)
		}
		freq := fmt.Sprintf("compute %d MHz, memory %d MHz",
			sys.GPUSpec.MaxSMClockMHz, sys.GPUSpec.MemClockMHz)
		fmt.Fprintf(&b, "%-12s %-58s %s\n", sys.Name, hw, freq)
	}
	return b.String()
}
