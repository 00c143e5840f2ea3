package experiments

import (
	"fmt"
	"strings"

	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/textplot"
)

// fig6Freqs are the static frequencies swept in Figs. 6-8 (MHz, descending).
var fig6Freqs = []int{1410, 1380, 1335, 1275, 1230, 1170, 1110, 1050, 1005}

// fig6Sizes are the per-GPU lattice sizes of Fig. 6.
var fig6Sizes = []int{200, 250, 300, 350, 400, 450}

// Fig6Point is one (size, frequency) cell: EDP normalized to 1410 MHz.
type Fig6Point struct {
	MHz      int
	EDPNorm  float64
	TimeNorm float64
}

// Fig6Series is the frequency sweep of one problem size.
type Fig6Series struct {
	NSide   int
	Points  []Fig6Point
	BestMHz int // frequency with the lowest EDP
}

// Fig6Data shows how statically down-scaling the GPU frequency changes EDP
// for different problem sizes on a single A100 (miniHPC): small problems
// leave the GPU underutilized and tolerate (indeed prefer) lower clocks.
type Fig6Data struct {
	Series []Fig6Series
}

// Fig6 sweeps GPU frequency × problem size on a single miniHPC A100.
func Fig6(scale float64) (*Fig6Data, error) {
	d := &Fig6Data{}
	nsteps := steps(scale)
	// One task per (size, clock) cell, size-major: what a run leaves behind
	// is its GPU EDP and wall time.
	type cell struct{ edp, timeS float64 }
	nf := len(fig6Freqs)
	cells, err := runEach(len(fig6Sizes)*nf, func(i int) (cell, error) {
		nside, mhz := float64(fig6Sizes[i/nf]), fig6Freqs[i%nf]
		res, err := core.Run(core.Config{
			System:           cluster.MiniHPC(),
			Ranks:            1,
			Sim:              core.Turbulence,
			ParticlesPerRank: nside * nside * nside,
			Steps:            nsteps,
			NewStrategy:      func() freqctl.Strategy { return freqctl.Static{MHz: mhz} },
		})
		if err != nil {
			return cell{}, err
		}
		return cell{res.GPUEDP(), res.WallTimeS}, nil
	})
	if err != nil {
		return nil, err
	}
	for si, nside := range fig6Sizes {
		series := Fig6Series{NSide: nside}
		row := cells[si*nf : (si+1)*nf]
		base := row[0] // fig6Freqs[0] is the 1410 MHz reference
		for fi, c := range row {
			series.Points = append(series.Points, Fig6Point{
				MHz:      fig6Freqs[fi],
				EDPNorm:  c.edp / base.edp,
				TimeNorm: c.timeS / base.timeS,
			})
		}
		best := series.Points[0]
		for _, p := range series.Points[1:] {
			if p.EDPNorm < best.EDPNorm {
				best = p
			}
		}
		series.BestMHz = best.MHz
		d.Series = append(d.Series, series)
	}
	return d, nil
}

// SeriesFor returns the sweep of one lattice size.
func (d *Fig6Data) SeriesFor(nside int) (Fig6Series, bool) {
	for _, s := range d.Series {
		if s.NSide == nside {
			return s, true
		}
	}
	return Fig6Series{}, false
}

// Render implements Renderable.
func (d *Fig6Data) Render() string {
	var b strings.Builder
	b.WriteString("FIG. 6 — EDP vs static GPU frequency by problem size (single A100, normalized to 1410 MHz)\n\n")
	xs := make([]string, len(fig6Freqs))
	for i, f := range fig6Freqs {
		xs[i] = fmt.Sprintf("%d", f)
	}
	var rows []textplot.Series
	for _, s := range d.Series {
		row := textplot.Series{Name: fmt.Sprintf("%d^3", s.NSide)}
		for _, p := range s.Points {
			row.Values = append(row.Values, p.EDPNorm)
		}
		rows = append(rows, row)
	}
	b.WriteString(textplot.SeriesTable("normalized EDP", "MHz", xs, rows))
	b.WriteString("\nbest-EDP frequency per size:\n")
	for _, s := range d.Series {
		fmt.Fprintf(&b, "  %d^3 -> %d MHz\n", s.NSide, s.BestMHz)
	}
	return b.String()
}
