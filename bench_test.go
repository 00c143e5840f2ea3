package sphenergy

// Ablation benchmarks for the design choices called out in DESIGN.md §5;
// each attaches its headline ratio as a custom metric. Per-experiment and
// per-layer timings are `go run ./benchmark`'s (experiments.*_ms,
// core.rank_steps_per_s, gpusim.execute_ns), not this file's.

import (
	"fmt"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/tuner"
)

// BenchmarkAblationBoostHold varies the governor's post-kernel boost-hold
// window, the parameter behind the DVFS energy penalty of Fig. 7.
func BenchmarkAblationBoostHold(b *testing.B) {
	for _, holdMS := range []float64{0, 5, 10, 20} {
		b.Run(fmt.Sprintf("hold=%gms", holdMS), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				spec := cluster.MiniHPC()
				spec.GPUSpec.BoostHoldS = holdMS / 1000
				base, err := core.Run(core.Config{
					System: spec, Ranks: 1, Sim: core.Turbulence,
					ParticlesPerRank: 450 * 450 * 450, Steps: 5,
				})
				if err != nil {
					b.Fatal(err)
				}
				dvfs, err := core.Run(core.Config{
					System: spec, Ranks: 1, Sim: core.Turbulence,
					ParticlesPerRank: 450 * 450 * 450, Steps: 5,
					NewStrategy: func() freqctl.Strategy { return freqctl.DVFS{} },
				})
				if err != nil {
					b.Fatal(err)
				}
				ratio = dvfs.GPUEnergyJ() / base.GPUEnergyJ()
			}
			b.ReportMetric(ratio, "dvfs_energy_ratio")
		})
	}
}

// BenchmarkAblationGCD compares per-card vs per-die energy attribution on
// LUMI-G, the §III-B measurement-granularity question.
func BenchmarkAblationGCD(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{
			System: cluster.LUMIG(), Ranks: 8, Sim: core.Turbulence,
			ParticlesPerRank: 20e6, Steps: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		node := res.System.Nodes[0]
		// Max relative difference between the two GCDs of one card: the
		// information per-card counters destroy.
		spread = 0
		for card := 0; card < node.NumCards(); card++ {
			a := node.Devices[2*card].EnergyJ()
			c := node.Devices[2*card+1].EnergyJ()
			d := (a - c) / (a + c)
			if d < 0 {
				d = -d
			}
			if d > spread {
				spread = d
			}
		}
	}
	b.ReportMetric(100*spread, "gcd_energy_spread_pct")
}

// BenchmarkAblationTunerStrategy compares the search strategies'
// evaluation counts on the Fig. 2 tuning problem.
func BenchmarkAblationTunerStrategy(b *testing.B) {
	kernel := core.TurbulencePipeline()[7] // MomentumEnergy
	desc := kernel.Kernel(450*450*450, 150, gpusim.Nvidia)
	for _, strat := range []tuner.StrategyKind{tuner.BruteForce, tuner.RandomSample, tuner.HillClimb} {
		b.Run(string(strat), func(b *testing.B) {
			var res *tuner.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = tuner.TuneKernel("MomentumEnergy", desc, tuner.Config{
					Spec:     gpusim.A100PCIE40GB(),
					Params:   tuner.Params{MinMHz: 1005, MaxMHz: 1410},
					Strategy: strat,
					Seed:     7,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Evaluations), "evaluations")
			b.ReportMetric(float64(res.Best.MHz), "best_mhz")
		})
	}
}

// BenchmarkAblationHostOverhead varies the host-side serial overheads that
// control how much small problems benefit from down-scaling (Fig. 6).
func BenchmarkAblationHostOverhead(b *testing.B) {
	for _, scale := range []float64{0.5, 1, 2} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			var edp float64
			for i := 0; i < b.N; i++ {
				run := func(mhz int) *core.Result {
					res, err := core.Run(core.Config{
						System: cluster.MiniHPC(), Ranks: 1, Sim: core.Turbulence,
						ParticlesPerRank: 200 * 200 * 200, Steps: 5,
						HostOverheadScale: scale,
						NewStrategy:       func() freqctl.Strategy { return freqctl.Static{MHz: mhz} },
					})
					if err != nil {
						b.Fatal(err)
					}
					return res
				}
				base := run(1410)
				low := run(1005)
				edp = low.GPUEDP() / base.GPUEDP()
			}
			b.ReportMetric(edp, "edp_1005_ratio_200cubed")
		})
	}
}

// BenchmarkAblationTimingModel compares the additive (partial-overlap)
// kernel timing model against the ideal roofline max(tc, tm): the additive
// model yields the paper's smooth per-kernel frequency sensitivity, the
// pure roofline makes sensitivity all-or-nothing and shifts the Fig. 7
// outcome.
func BenchmarkAblationTimingModel(b *testing.B) {
	for _, roofline := range []bool{false, true} {
		name := "additive"
		if roofline {
			name = "roofline"
		}
		b.Run(name, func(b *testing.B) {
			var time, energy float64
			for i := 0; i < b.N; i++ {
				spec := cluster.MiniHPC()
				spec.GPUSpec.PureRooflineOverlap = roofline
				base, err := core.Run(core.Config{
					System: spec, Ranks: 1, Sim: core.Turbulence,
					ParticlesPerRank: 450 * 450 * 450, Steps: 5,
				})
				if err != nil {
					b.Fatal(err)
				}
				low, err := core.Run(core.Config{
					System: spec, Ranks: 1, Sim: core.Turbulence,
					ParticlesPerRank: 450 * 450 * 450, Steps: 5,
					NewStrategy: func() freqctl.Strategy { return freqctl.Static{MHz: 1005} },
				})
				if err != nil {
					b.Fatal(err)
				}
				time = low.WallTimeS / base.WallTimeS
				energy = low.GPUEnergyJ() / base.GPUEnergyJ()
			}
			b.ReportMetric(time, "static1005_time_ratio")
			b.ReportMetric(energy, "static1005_energy_ratio")
		})
	}
}
