// Package experiments contains one driver per table and figure of the
// paper's evaluation. Every driver runs the full pipeline on the simulated
// systems and renders the same rows/series the paper reports; EXPERIMENTS.md
// records paper-vs-measured values.
//
// Drivers accept a Scale knob: 1.0 reproduces the paper's step counts
// (100 time-steps); smaller values shrink step counts proportionally for
// quick runs and tests. Because time and energy are virtual, scaling steps
// changes absolute magnitudes but not the normalized shapes.
package experiments

import (
	"fmt"
	"math"
	"sort"
)

// Renderable is an experiment result that can print itself.
type Renderable interface {
	Render() string
}

// Runner executes one experiment at a given scale.
type Runner func(scale float64) (Renderable, error)

// registry maps experiment ids ("table1", "fig2", ...) to runners.
var registry = map[string]Runner{
	"table1": func(s float64) (Renderable, error) { return TableI(), nil },
	"fig1":   func(s float64) (Renderable, error) { return Fig1(), nil },
	"fig2":   func(s float64) (Renderable, error) { return Fig2(s) },
	"fig3":   func(s float64) (Renderable, error) { return Fig3(s) },
	"fig4":   func(s float64) (Renderable, error) { return Fig4(s) },
	"fig5":   func(s float64) (Renderable, error) { return Fig5(s) },
	"fig6":   func(s float64) (Renderable, error) { return Fig6(s) },
	"fig7":   func(s float64) (Renderable, error) { return Fig7(s) },
	"fig8":   func(s float64) (Renderable, error) { return Fig8(s) },
	"fig9":   func(s float64) (Renderable, error) { return Fig9(s) },
	// ext-amd realizes the paper's §V future work: the method on AMD GPUs.
	"ext-amd": func(s float64) (Renderable, error) { return ExtAMD(s) },
	// ext-powercap compares the frequency knob against power capping.
	"ext-powercap": func(s float64) (Renderable, error) { return ExtPowerCap(s) },
}

// Names lists the available experiment ids in order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Run executes an experiment by id at the given scale.
func Run(name string, scale float64) (Renderable, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	if err := CheckScale(scale); err != nil {
		return nil, fmt.Errorf("experiments: scale %w", err)
	}
	return r(scale)
}

// CheckScale refuses a scale Run would not run as given: one that is not a
// finite number above 0, or one whose step count does not fit in an int
// (steps would wrap it round to 2). The error starts with the scale.
func CheckScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("%v is not a finite number > 0", scale)
	}
	if !(100*scale+0.5 < math.MaxInt) {
		return fmt.Errorf("%v gives more steps than an int holds", scale)
	}
	return nil
}

// steps converts the paper's 100-step runs to a scaled step count (>= 2).
func steps(scale float64) int {
	n := int(100*scale + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}
