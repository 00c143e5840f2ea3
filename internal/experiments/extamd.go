package experiments

import (
	"fmt"
	"strings"

	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/tuner"
)

// ExtAMDData is the paper's §V future-work experiment realized: the ManDyn
// method applied to AMD GPUs (LUMI-G MI250X GCDs) — per-kernel frequency
// tuning through the ROCm-SMI control path and the strategy comparison on
// an 8-GCD node.
type ExtAMDData struct {
	Table map[string]int
	Rows  []Fig7Row
}

// ExtAMD tunes the Turbulence pipeline on an MI250X GCD (EDP objective,
// 1000 MHz up to the 1700 MHz maximum) and compares baseline, static
// down-scaling, DVFS and ManDyn on one LUMI-G node.
func ExtAMD(scale float64) (*ExtAMDData, error) {
	spec := cluster.LUMIG()
	d := &ExtAMDData{Table: map[string]int{}}

	cfg := tuner.Config{
		Spec:      spec.GPUSpec,
		Params:    tuner.Params{MinMHz: 1000, MaxMHz: spec.GPUSpec.MaxSMClockMHz},
		Objective: tuner.EDP,
	}
	for _, fn := range core.TurbulencePipeline() {
		res, err := tuner.TuneKernel(fn.Name, fn.Kernel(80e6, 150, spec.GPUSpec.Vendor), cfg)
		if err != nil {
			return nil, err
		}
		d.Table[fn.Name] = res.Best.MHz
	}

	table := d.Table
	var err error
	d.Rows, err = compareStrategies(core.Config{
		System:           spec,
		Ranks:            8, // one full LUMI-G node
		Sim:              core.Turbulence,
		ParticlesPerRank: 80e6,
		Steps:            steps(scale),
	}, []namedStrategy{
		{"baseline-1700", func() freqctl.Strategy { return freqctl.Baseline{} }},
		{"static-1000", func() freqctl.Strategy { return freqctl.Static{MHz: 1000} }},
		{"dvfs", func() freqctl.Strategy { return freqctl.DVFS{} }},
		{"mandyn", func() freqctl.Strategy { return &freqctl.ManDyn{Table: table} }},
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Row returns a named configuration's results.
func (d *ExtAMDData) Row(name string) (Fig7Row, bool) { return findRow(d.Rows, name) }

// Render implements Renderable.
func (d *ExtAMDData) Render() string {
	var b strings.Builder
	b.WriteString("EXTENSION — ManDyn on AMD MI250X (LUMI-G, one node, 8 GCDs; the paper's §V future work)\n\n")
	b.WriteString("tuned per-function clocks (ROCm-SMI control path):\n")
	for _, fn := range core.PipelineFunctionNames(core.Turbulence) {
		fmt.Fprintf(&b, "  %-22s %4d MHz\n", fn, d.Table[fn])
	}
	b.WriteString("\n" + renderRows(d.Rows))
	return b.String()
}
