package experiments

import (
	"strings"
	"sync"

	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/report"
)

// fig45Case is one of the four runs shared by Figs. 4 and 5.
type fig45Case struct {
	label string
	spec  cluster.NodeSpec
	sim   core.SimKind
	ppr   float64
}

func fig45Cases() []fig45Case {
	return []fig45Case{
		{"LUMI-Turb", cluster.LUMIG(), core.Turbulence, 150e6},
		{"LUMI-Evr", cluster.LUMIG(), core.Evrard, 80e6},
		{"CSCS-A100-Turb", cluster.CSCSA100(), core.Turbulence, 150e6},
		{"CSCS-A100-Evr", cluster.CSCSA100(), core.Evrard, 80e6},
	}
}

// fig45Run is what Figs. 4 and 5 keep of one shared run: the two breakdowns,
// never the *core.Result (32 rank profiles and a 4-8 node system) they were
// computed from.
type fig45Run struct {
	once     sync.Once
	device   report.DeviceBreakdown
	function report.FunctionBreakdown
	err      error
}

// fig45Key identifies a shared run: the case and its step count.
type fig45Key struct {
	label string
	steps int
}

// fig45Memo holds, for the lifetime of the process, one fig45Run per (case,
// steps), so whichever of the two figures renders first pays for the four
// runs and the other reads them. Runs are deterministic, so a memoized
// breakdown is the one a fresh run would give. It is the one piece of state
// the experiments keep past a call, for a measured reason: at -scale 5 the
// four 32-rank runs take 31-62 ms on 2 CPUs against 0.02-0.04 ms from the
// memo, a fifth to a quarter of `-run all`'s wall time, so it stays until
// one call runs the four cases and hands both figures their breakdowns.
var fig45Memo sync.Map // fig45Key -> *fig45Run

// fig45Runs returns the four shared runs' breakdowns in case order.
func fig45Runs(scale float64) ([]*fig45Run, error) {
	cases, nsteps := fig45Cases(), steps(scale)
	return runEach(len(cases), func(i int) (*fig45Run, error) {
		c := cases[i]
		v, _ := fig45Memo.LoadOrStore(fig45Key{c.label, nsteps}, new(fig45Run))
		r := v.(*fig45Run)
		r.once.Do(func() {
			var res *core.Result
			res, r.err = core.Run(core.Config{
				System:           c.spec,
				Ranks:            32,
				Sim:              c.sim,
				ParticlesPerRank: c.ppr,
				Steps:            nsteps,
			})
			if r.err == nil {
				r.device = report.NewDeviceBreakdown(res.Report, c.spec, c.label)
				r.function = report.NewFunctionBreakdown(res.Report, c.label)
			}
		})
		return r, r.err
	})
}

// Fig4Data is the per-device energy breakdown of the four 32-rank runs.
type Fig4Data struct {
	Breakdowns []report.DeviceBreakdown
}

// Fig4 measures energy consumption per device class for Subsonic
// Turbulence and Evrard Collapse on LUMI-G and CSCS-A100 with 32 ranks.
func Fig4(scale float64) (*Fig4Data, error) {
	runs, err := fig45Runs(scale)
	if err != nil {
		return nil, err
	}
	d := &Fig4Data{}
	for _, r := range runs {
		d.Breakdowns = append(d.Breakdowns, r.device)
	}
	return d, nil
}

// Render implements Renderable.
func (d *Fig4Data) Render() string {
	var b strings.Builder
	b.WriteString("FIG. 4 — energy breakdown by device (32 ranks, 100 steps at scale 1.0)\n\n")
	for _, br := range d.Breakdowns {
		b.WriteString(br.Render())
		b.WriteString("\n")
	}
	return b.String()
}

// Fig5Data is the per-function energy breakdown of the same four runs.
type Fig5Data struct {
	Breakdowns []report.FunctionBreakdown
}

// Fig5 measures per-function energy consumption for the four Fig. 4 runs,
// the level of detail normally unavailable to system-monitoring users.
func Fig5(scale float64) (*Fig5Data, error) {
	runs, err := fig45Runs(scale)
	if err != nil {
		return nil, err
	}
	d := &Fig5Data{}
	for _, r := range runs {
		d.Breakdowns = append(d.Breakdowns, r.function)
	}
	return d, nil
}

// ShareOf returns the GPU-energy share of a function in a labeled run.
func (d *Fig5Data) ShareOf(label, fn string) float64 {
	for _, br := range d.Breakdowns {
		if br.Label != label {
			continue
		}
		for _, f := range br.Functions {
			if f.Name == fn {
				return f.GPUShare
			}
		}
	}
	return 0
}

// Render implements Renderable.
func (d *Fig5Data) Render() string {
	var b strings.Builder
	b.WriteString("FIG. 5 — energy breakdown by SPH-EXA function\n\n")
	for _, br := range d.Breakdowns {
		b.WriteString(br.Render())
		b.WriteString("top GPU-energy consumers: " + strings.Join(br.TopConsumers(3), ", ") + "\n\n")
	}
	return b.String()
}
