package experiments

import (
	"fmt"
	"sort"
	"strings"

	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/par"
	"sphenergy/internal/report"
	"sphenergy/internal/slurm"
	"sphenergy/internal/textplot"
)

// Fig3Point is one allocation size's PMT-vs-Slurm comparison.
type Fig3Point struct {
	GPUs      int
	SlurmJ    float64
	PMTJ      float64
	LoopTimeS float64
	// Normalized values (to the largest allocation's Slurm energy).
	SlurmNorm, PMTNorm float64
}

// Fig3Series is one system's scaling series.
type Fig3Series struct {
	System string
	Points []Fig3Point
}

// Fig3Data validates PMT-instrumented energy against Slurm-reported energy
// for Subsonic Turbulence weak scaling (150 M particles per GPU) on the two
// production systems, 8–48 GPUs on CSCS-A100 and up to 96 GCDs on LUMI-G.
type Fig3Data struct {
	Series []Fig3Series
}

// Fig3 runs the weak-scaling validation campaign through the Slurm model so
// that the ConsumedEnergy accounting includes the job setup phase PMT does
// not observe.
func Fig3(scale float64) (*Fig3Data, error) {
	d := &Fig3Data{}
	campaigns := []struct {
		spec  cluster.NodeSpec
		sizes []int
	}{
		{cluster.CSCSA100(), []int{8, 16, 24, 32, 40, 48}},
		{cluster.LUMIG(), []int{16, 32, 48, 64, 80, 96}},
	}
	nsteps := steps(scale)
	// Queue every job of both campaigns first: job IDs and accounting order
	// are then the serial campaign's, whatever order the runs finish in.
	var jobs []*slurm.Job
	for _, c := range campaigns {
		mgr := slurm.NewManager()
		for _, gpus := range c.sizes {
			jobs = append(jobs, mgr.Queue(core.Config{
				System:           c.spec,
				Ranks:            gpus,
				Sim:              core.Turbulence,
				ParticlesPerRank: 150e6,
				Steps:            nsteps,
			}, slurm.SubmitOptions{
				JobName:       fmt.Sprintf("turb-%dgpu", gpus),
				SetupS:        45 * scale,
				TRES:          slurm.ParseTRES("billing,cpu,energy,gres/gpu"),
				EnergyBackend: "pm_counters",
			}))
		}
	}
	// One batch over both campaigns, handed out largest first: a run's cost
	// is its rank count, and the 96-GCD job alone is a fifth of the figure's
	// work — drawn last it would leave every other worker idle behind it.
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].NTasks > jobs[order[b]].NTasks })
	errs := make([]error, len(jobs))
	par.Tasks(len(jobs), func(k int) { errs[order[k]] = jobs[order[k]].Run() })
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	for _, c := range campaigns {
		series := Fig3Series{System: c.spec.Name}
		for i, gpus := range c.sizes {
			job := jobs[i]
			series.Points = append(series.Points, Fig3Point{
				GPUs:      gpus,
				SlurmJ:    job.ConsumedEnergyJ,
				PMTJ:      job.LoopEnergyJ,
				LoopTimeS: job.LoopTimeS,
			})
		}
		jobs = jobs[len(c.sizes):]
		// Normalize to the largest allocation, as in the figure.
		ref := series.Points[len(series.Points)-1].SlurmJ
		for i := range series.Points {
			series.Points[i].SlurmNorm = series.Points[i].SlurmJ / ref
			series.Points[i].PMTNorm = series.Points[i].PMTJ / ref
		}
		d.Series = append(d.Series, series)
	}
	return d, nil
}

// MaxRelativeGap returns the largest |Slurm-PMT|/Slurm across a series.
func (s Fig3Series) MaxRelativeGap() float64 {
	maxGap := 0.0
	for _, p := range s.Points {
		gap := (p.SlurmJ - p.PMTJ) / p.SlurmJ
		if gap < 0 {
			gap = -gap
		}
		if gap > maxGap {
			maxGap = gap
		}
	}
	return maxGap
}

// Render implements Renderable.
func (d *Fig3Data) Render() string {
	var b strings.Builder
	b.WriteString("FIG. 3 — PMT-measured vs Slurm-reported energy (weak scaling, normalized)\n\n")
	for _, s := range d.Series {
		xs := make([]string, len(s.Points))
		slurmRow := textplot.Series{Name: "Slurm"}
		pmtRow := textplot.Series{Name: "PMT"}
		gapRow := textplot.Series{Name: "gap %"}
		for i, p := range s.Points {
			xs[i] = fmt.Sprintf("%d", p.GPUs)
			slurmRow.Values = append(slurmRow.Values, p.SlurmNorm)
			pmtRow.Values = append(pmtRow.Values, p.PMTNorm)
			gapRow.Values = append(gapRow.Values, 100*(p.SlurmJ-p.PMTJ)/p.SlurmJ)
		}
		b.WriteString(textplot.SeriesTable(s.System, "GPUs", xs, []textplot.Series{slurmRow, pmtRow, gapRow}))
		fmt.Fprintf(&b, "max relative gap: %.2f%% (PMT excludes the job-setup phase)\n", 100*s.MaxRelativeGap())
		// Weak-scaling efficiency from the PMT loop measurements.
		ranks := make([]int, len(s.Points))
		ts := make([]float64, len(s.Points))
		es := make([]float64, len(s.Points))
		for i, p := range s.Points {
			ranks[i], ts[i], es[i] = p.GPUs, p.LoopTimeS, p.PMTJ
		}
		ws := report.WeakScaling(ranks, ts, es)
		fmt.Fprintf(&b, "weak-scaling efficiency at %d GPUs: %.3f, energy/GPU ratio: %.3f\n\n",
			ws[len(ws)-1].Ranks, ws[len(ws)-1].Efficiency,
			ws[len(ws)-1].EnergyPerRank/ws[0].EnergyPerRank)
	}
	return b.String()
}
