package experiments

import (
	"fmt"
	"strings"

	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/report"
	"sphenergy/internal/tuner"
)

// Fig7Row is one configuration of the strategy comparison.
type Fig7Row struct {
	Name  string
	TimeS float64
	GPUJ  float64
	// Normalized to the 1410 MHz baseline.
	TimeNorm, EnergyNorm, EDPNorm float64
}

// Fig7Data compares time-to-solution, energy and EDP of the baseline,
// static down-scaling, hardware DVFS, and ManDyn (the paper's per-function
// dynamic frequency setting) for Subsonic Turbulence at 450³ particles on a
// single A100.
type Fig7Data struct {
	Rows []Fig7Row
	// ManDynTable is the tuned per-function frequency table used (from the
	// Fig. 2 tuning pass).
	ManDynTable map[string]int
}

// Fig7 runs the strategy comparison. The ManDyn table comes from the same
// KernelTuner-style pass that generates Fig. 2 — the paper's workflow.
func Fig7(scale float64) (*Fig7Data, error) {
	tuned, err := Fig2(scale)
	if err != nil {
		return nil, err
	}
	table := tuned.Table()
	d := &Fig7Data{ManDynTable: table}

	cfgs := []namedStrategy{{"baseline-1410", func() freqctl.Strategy { return freqctl.Baseline{} }}}
	for _, mhz := range []int{1380, 1335, 1275, 1230, 1170, 1110, 1050, 1005} {
		cfgs = append(cfgs, namedStrategy{fmt.Sprintf("static-%d", mhz), func() freqctl.Strategy { return freqctl.Static{MHz: mhz} }})
	}
	cfgs = append(cfgs,
		namedStrategy{"dvfs", func() freqctl.Strategy { return freqctl.DVFS{} }},
		namedStrategy{"mandyn", func() freqctl.Strategy { return &freqctl.ManDyn{Table: table} }})

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

// namedStrategy is one configuration of a strategy comparison.
type namedStrategy struct {
	name string
	mk   func() freqctl.Strategy
}

// compareStrategies runs base once per strategy and returns one row per
// strategy, normalized to the first — the baseline.
func compareStrategies(base core.Config, strategies []namedStrategy) ([]Fig7Row, error) {
	rows, err := runEach(len(strategies), func(i int) (Fig7Row, error) {
		cfg := base
		cfg.NewStrategy = strategies[i].mk
		res, err := core.Run(cfg)
		if err != nil {
			return Fig7Row{}, err
		}
		return Fig7Row{Name: strategies[i].name, TimeS: res.WallTimeS, GPUJ: res.GPUEnergyJ()}, nil
	})
	if err != nil {
		return nil, err
	}
	baseT, baseE := rows[0].TimeS, rows[0].GPUJ
	for i := range rows {
		r := &rows[i]
		r.TimeNorm = r.TimeS / baseT
		r.EnergyNorm = r.GPUJ / baseE
		r.EDPNorm = r.TimeNorm * r.EnergyNorm
	}
	return rows, nil
}

// findRow returns the named row of a strategy comparison.
func findRow(rows []Fig7Row, name string) (Fig7Row, bool) {
	for _, r := range rows {
		if r.Name == name {
			return r, true
		}
	}
	return Fig7Row{}, false
}

// renderRows renders a strategy comparison as the normalized table.
func renderRows(rows []Fig7Row) string {
	norm := make([]report.Normalized, len(rows))
	for i, r := range rows {
		norm[i] = report.Normalized{Name: r.Name, TimeRatio: r.TimeNorm, EnergyRatio: r.EnergyNorm, EDPRatio: r.EDPNorm}
	}
	return report.RenderNormalizedTable("", norm)
}

// ParetoOptimal returns the names of the strategies on the (time, energy)
// Pareto front — §IV-D frames dynamic frequency setting as identifying
// exactly these configurations.
func (d *Fig7Data) ParetoOptimal() []string {
	ms := make([]tuner.Measurement, len(d.Rows))
	for i, r := range d.Rows {
		ms[i] = tuner.Measurement{MHz: i, TimeS: r.TimeS, EnergyJ: r.GPUJ}
	}
	front := tuner.ParetoFront(ms)
	names := make([]string, len(front))
	for i, m := range front {
		names[i] = d.Rows[m.MHz].Name
	}
	return names
}

// Row returns a named configuration's results.
func (d *Fig7Data) Row(name string) (Fig7Row, bool) { return findRow(d.Rows, name) }

// Render implements Renderable.
func (d *Fig7Data) Render() string {
	var b strings.Builder
	b.WriteString("FIG. 7 — time / energy / EDP vs frequency strategy (450^3, single A100, normalized)\n\n")
	b.WriteString(renderRows(d.Rows))
	if md, ok := d.Row("mandyn"); ok {
		fmt.Fprintf(&b, "\nManDyn: %+.2f%% time, %+.2f%% energy, %+.2f%% EDP vs baseline\n",
			100*(md.TimeNorm-1), 100*(md.EnergyNorm-1), 100*(md.EDPNorm-1))
	}
	fmt.Fprintf(&b, "Pareto-optimal configurations (time vs energy): %s\n",
		strings.Join(d.ParetoOptimal(), ", "))
	return b.String()
}
