package experiments

import (
	"fmt"
	"strings"

	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/textplot"
)

// Fig9Data is the DVFS frequency trace of a 10-time-step Subsonic
// Turbulence run on a single A100 under governor control (§IV-E).
type Fig9Data struct {
	// TimeS and ClockMHz are the trace's points: the SM clock the plot
	// draws against virtual time.
	TimeS, ClockMHz []float64
	StepBoundariesS []float64
	// Per-kernel mean clocks, the quantities the paper reads off the trace.
	MeanClockMHz map[string]float64
	MinClockMHz  int
	MaxClockMHz  int
}

// Fig9 records the frequencies the DVFS governor sets during 10 time-steps.
// Its clock sink keeps the plotted points and folds, in point order, each
// pipeline function's clock sum and the clock range as the points arrive.
func Fig9(scale float64) (*Fig9Data, error) {
	d := &Fig9Data{MeanClockMHz: map[string]float64{}}
	type clockSum struct {
		sum float64
		n   int
	}
	sums := map[string]*clockSum{}
	for _, fn := range core.PipelineFunctionNames(core.Turbulence) {
		sums[fn] = &clockSum{}
	}
	sink := func(p gpusim.TracePoint) {
		if len(d.TimeS) == 0 || p.ClockMHz < d.MinClockMHz {
			d.MinClockMHz = p.ClockMHz
		}
		if len(d.TimeS) == 0 || p.ClockMHz > d.MaxClockMHz {
			d.MaxClockMHz = p.ClockMHz
		}
		d.TimeS = append(d.TimeS, p.TimeS)
		d.ClockMHz = append(d.ClockMHz, float64(p.ClockMHz))
		if s := sums[p.Kernel]; s != nil {
			s.sum += float64(p.ClockMHz)
			s.n++
		}
	}
	res, err := core.Run(core.Config{
		System:           cluster.MiniHPC(),
		Ranks:            1,
		Sim:              core.Turbulence,
		ParticlesPerRank: particles450Cubed,
		Steps:            10,
		NewStrategy:      func() freqctl.Strategy { return freqctl.DVFS{} },
		ClockSink:        sink,
	})
	if err != nil {
		return nil, err
	}
	d.StepBoundariesS = res.StepBoundariesS
	for fn, s := range sums {
		if s.n > 0 {
			d.MeanClockMHz[fn] = s.sum / float64(s.n)
		}
	}
	return d, nil
}

// Render implements Renderable.
func (d *Fig9Data) Render() string {
	var b strings.Builder
	b.WriteString("FIG. 9 — DVFS-set device frequencies during 10 time-steps (450^3, single A100)\n\n")
	b.WriteString(textplot.LinePlot("SM clock (MHz) vs time (s)", d.TimeS, d.ClockMHz, 90, 14))
	b.WriteString("\nmean clock while executing each function:\n")
	for _, fn := range core.PipelineFunctionNames(core.Turbulence) {
		if m, ok := d.MeanClockMHz[fn]; ok {
			fmt.Fprintf(&b, "  %-22s %6.0f MHz\n", fn, m)
		}
	}
	fmt.Fprintf(&b, "observed clock range: %d - %d MHz\n", d.MinClockMHz, d.MaxClockMHz)
	return b.String()
}
