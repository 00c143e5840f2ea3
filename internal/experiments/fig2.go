package experiments

import (
	"fmt"
	"strings"

	"sphenergy/internal/core"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/textplot"
	"sphenergy/internal/tuner"
)

// particles450Cubed is the paper's per-GPU tuning problem size.
const particles450Cubed = 450 * 450 * 450

// Fig2Row is one function's tuning outcome.
type Fig2Row struct {
	Function string
	BestMHz  int
	// Beta is the kernel's measured frequency sensitivity, kept for
	// interpretation: compute-bound kernels tune to high clocks.
	Beta float64
	// Sweep holds the full measured EDP curve (descending MHz).
	Sweep []tuner.Measurement
}

// Fig2Data is the per-function best-EDP frequency table of Fig. 2.
type Fig2Data struct {
	Rows           []Fig2Row
	MinMHz, MaxMHz int
}

// Fig2 runs the KernelTuner-style frequency search for every SPH-EXA
// function of the Subsonic Turbulence pipeline at 450³ particles on a
// single A100, optimizing EDP over 1005–1410 MHz (§III-C).
func Fig2(scale float64) (*Fig2Data, error) {
	spec := gpusim.A100PCIE40GB()
	d := &Fig2Data{MinMHz: 1005, MaxMHz: 1410}
	cfg := tuner.Config{
		Spec:      spec,
		Params:    tuner.Params{MinMHz: d.MinMHz, MaxMHz: d.MaxMHz},
		Objective: tuner.EDP,
	}
	for _, fn := range core.TurbulencePipeline() {
		kernel := fn.Kernel(particles450Cubed, 150, spec.Vendor)
		res, err := tuner.TuneKernel(fn.Name, kernel, cfg)
		if err != nil {
			return nil, err
		}
		d.Rows = append(d.Rows, Fig2Row{
			Function: fn.Name,
			BestMHz:  res.Best.MHz,
			Beta:     kernel.FrequencySensitivity(spec),
			Sweep:    res.All,
		})
	}
	return d, nil
}

// Table returns the ManDyn frequency table this tuning produces.
func (d *Fig2Data) Table() map[string]int {
	out := make(map[string]int, len(d.Rows))
	for _, r := range d.Rows {
		out[r.Function] = r.BestMHz
	}
	return out
}

// Render implements Renderable.
func (d *Fig2Data) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG. 2 — best-EDP GPU compute frequency per function (450^3 particles, %d-%d MHz)\n\n",
		d.MinMHz, d.MaxMHz)
	bars := make([]textplot.Bar, 0, len(d.Rows))
	for _, r := range d.Rows {
		bars = append(bars, textplot.Bar{Label: r.Function, Value: float64(r.BestMHz), Annotation: "MHz"})
	}
	b.WriteString(textplot.BarChart("", bars, 40))
	b.WriteString("\nfrequency sensitivity (beta): compute-bound kernels tune high\n")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "  %-22s beta=%.2f -> %d MHz\n", r.Function, r.Beta, r.BestMHz)
	}
	return b.String()
}
