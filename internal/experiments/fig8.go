package experiments

import (
	"fmt"
	"strings"

	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/instr"
	"sphenergy/internal/textplot"
)

// Fig8Cell is one (function, frequency) measurement, normalized to the
// function's 1410 MHz baseline.
type Fig8Cell struct {
	MHz        int
	TimeNorm   float64
	EnergyNorm float64
	EDPNorm    float64
}

// Fig8Function is the sweep of one function.
type Fig8Function struct {
	Name  string
	Cells []Fig8Cell
}

// Fig8Data holds the per-function effect of static frequency down-scaling
// on (a) execution time, (b) energy, (c) EDP for the 450³ Turbulence run.
type Fig8Data struct {
	Functions []Fig8Function
	Freqs     []int
}

// Fig8 sweeps static frequencies and attributes time and GPU energy per
// instrumented function.
func Fig8(scale float64) (*Fig8Data, error) {
	freqs := []int{1410, 1380, 1335, 1275, 1230, 1170, 1110, 1050, 1005}
	d := &Fig8Data{Freqs: freqs}
	nsteps := steps(scale)

	reports, err := runEach(len(freqs), func(i int) (*instr.Report, error) {
		mhz := freqs[i]
		res, err := core.Run(core.Config{
			System:           cluster.MiniHPC(),
			Ranks:            1,
			Sim:              core.Turbulence,
			ParticlesPerRank: particles450Cubed,
			Steps:            nsteps,
			NewStrategy:      func() freqctl.Strategy { return freqctl.Static{MHz: mhz} },
		})
		if err != nil {
			return nil, err
		}
		return res.Report, nil
	})
	if err != nil {
		return nil, err
	}

	base := reports[0]
	for _, name := range base.FunctionNames() {
		bst := base.FunctionTotal(name)
		fn := Fig8Function{Name: name}
		for i, mhz := range freqs {
			st := reports[i].FunctionTotal(name)
			cell := Fig8Cell{MHz: mhz}
			if bst.TimeS > 0 {
				cell.TimeNorm = st.TimeS / bst.TimeS
			}
			if bst.GPUJ > 0 {
				cell.EnergyNorm = st.GPUJ / bst.GPUJ
			}
			cell.EDPNorm = cell.TimeNorm * cell.EnergyNorm
			fn.Cells = append(fn.Cells, cell)
		}
		d.Functions = append(d.Functions, fn)
	}
	return d, nil
}

// CellFor returns the measurement of one function at one frequency.
func (d *Fig8Data) CellFor(fn string, mhz int) (Fig8Cell, bool) {
	for _, f := range d.Functions {
		if f.Name != fn {
			continue
		}
		for _, c := range f.Cells {
			if c.MHz == mhz {
				return c, true
			}
		}
	}
	return Fig8Cell{}, false
}

// Render implements Renderable.
func (d *Fig8Data) Render() string {
	var b strings.Builder
	b.WriteString("FIG. 8 — per-function effect of static frequency down-scaling (450^3, normalized to 1410 MHz)\n")
	xs := make([]string, len(d.Freqs))
	for i, f := range d.Freqs {
		xs[i] = fmt.Sprintf("%d", f)
	}
	for _, metric := range []struct {
		title string
		get   func(Fig8Cell) float64
	}{
		{"(a) execution time", func(c Fig8Cell) float64 { return c.TimeNorm }},
		{"(b) energy", func(c Fig8Cell) float64 { return c.EnergyNorm }},
		{"(c) EDP", func(c Fig8Cell) float64 { return c.EDPNorm }},
	} {
		var rows []textplot.Series
		for _, fn := range d.Functions {
			row := textplot.Series{Name: fn.Name}
			for _, c := range fn.Cells {
				row.Values = append(row.Values, metric.get(c))
			}
			rows = append(rows, row)
		}
		b.WriteString("\n" + textplot.SeriesTable(metric.title, "MHz", xs, rows))
	}
	return b.String()
}
