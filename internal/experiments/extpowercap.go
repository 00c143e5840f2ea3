package experiments

import (
	"fmt"
	"strings"

	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/freqctl"
)

// ExtPowerCapData compares the paper's frequency-scaling knob against
// power capping on the 450³ single-A100 workload: both derate the device,
// but frequency scaling is workload-targeted (ManDyn) while a cap derates
// every kernel uniformly through the governor.
type ExtPowerCapData struct {
	Rows []Fig7Row
}

// ExtPowerCap sweeps power caps alongside the frequency strategies.
func ExtPowerCap(scale float64) (*ExtPowerCapData, error) {
	tuned, err := Fig2(scale)
	if err != nil {
		return nil, err
	}
	table := tuned.Table()

	cfgs := []namedStrategy{
		{"baseline-1410", func() freqctl.Strategy { return freqctl.Baseline{} }},
		{"static-1005", func() freqctl.Strategy { return freqctl.Static{MHz: 1005} }},
		{"mandyn", func() freqctl.Strategy { return &freqctl.ManDyn{Table: table} }},
	}
	for _, w := range []float64{220, 190, 160} {
		cfgs = append(cfgs, namedStrategy{fmt.Sprintf("powercap-%.0f", w),
			func() freqctl.Strategy { return freqctl.PowerCap{Watts: w} }})
	}

	d := &ExtPowerCapData{}
	d.Rows, err = compareStrategies(core.Config{
		System:           cluster.MiniHPC(),
		Ranks:            1,
		Sim:              core.Turbulence,
		ParticlesPerRank: particles450Cubed,
		Steps:            steps(scale),
	}, cfgs)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Row returns a named configuration's results.
func (d *ExtPowerCapData) Row(name string) (Fig7Row, bool) { return findRow(d.Rows, name) }

// Render implements Renderable.
func (d *ExtPowerCapData) Render() string {
	var b strings.Builder
	b.WriteString("EXTENSION — frequency scaling vs power capping (450^3, single A100, normalized)\n\n")
	b.WriteString(renderRows(d.Rows))
	b.WriteString("\npower caps derate every kernel uniformly; ManDyn's per-kernel clocks\n")
	b.WriteString("target only the kernels whose EDP benefits — the paper's argument for\n")
	b.WriteString("application-level control.\n")
	return b.String()
}
