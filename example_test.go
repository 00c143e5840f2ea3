package sphenergy_test

import (
	"fmt"
	"log"

	"sphenergy"
	"sphenergy/internal/core"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/tuner"
)

// Tune per-function clocks for Subsonic Turbulence on miniHPC's A100 (the
// KernelTuner pass of Fig. 2), then run the same 450³ workload locked at
// 1410 MHz and under ManDyn: the paper's Fig. 7 result for this system.
func Example() {
	system := sphenergy.MiniHPC()
	const particles = 450 * 450 * 450 // the paper's tuning size
	table, err := sphenergy.TuneFrequencies(system, sphenergy.Turbulence, particles, 150)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tuned per-function application clocks:")
	for _, fn := range core.PipelineFunctionNames(sphenergy.Turbulence) {
		fmt.Printf("  %-22s %4d MHz\n", fn, table[fn])
	}

	run := func(name string, strategy func() sphenergy.Strategy) *sphenergy.Result {
		res, err := sphenergy.Run(sphenergy.Config{
			System:           system,
			Ranks:            1,
			Sim:              sphenergy.Turbulence,
			ParticlesPerRank: particles,
			Steps:            20,
			NewStrategy:      strategy,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s time %7.1f s   GPU energy %8.0f J   EDP %.4g J*s\n",
			name, res.WallTimeS, res.GPUEnergyJ(), res.GPUEDP())
		return res
	}
	base := run("baseline", sphenergy.Baseline())
	md := run("mandyn", sphenergy.ManDyn(table))
	fmt.Printf("ManDyn vs baseline: %+.2f%% time, %+.2f%% GPU energy, %+.2f%% EDP\n",
		100*(md.WallTimeS/base.WallTimeS-1),
		100*(md.GPUEnergyJ()/base.GPUEnergyJ()-1),
		100*(md.GPUEDP()/base.GPUEDP()-1))

	// The report gives the per-function detail system monitoring cannot.
	fmt.Println("per-function breakdown (ManDyn run):")
	for _, fn := range md.Report.FunctionNames() {
		st := md.Report.FunctionTotal(fn)
		fmt.Printf("  %-22s %8.2f s  %9.1f J GPU\n", fn, st.TimeS, st.GPUJ)
	}
	// Output:
	// tuned per-function application clocks:
	//   DomainDecompAndSync    1005 MHz
	//   FindNeighbors          1005 MHz
	//   XMass                  1005 MHz
	//   NormalizationGradh     1005 MHz
	//   EquationOfState        1005 MHz
	//   IADVelocityDivCurl     1410 MHz
	//   AVSwitches             1005 MHz
	//   MomentumEnergy         1410 MHz
	//   Timestep               1005 MHz
	//   UpdateQuantities       1005 MHz
	// baseline   time   129.8 s   GPU energy    22053 J   EDP 2.862e+06 J*s
	// mandyn     time   134.3 s   GPU energy    20343 J   EDP 2.733e+06 J*s
	// ManDyn vs baseline: +3.49% time, -7.76% GPU energy, -4.54% EDP
	// per-function breakdown (ManDyn run):
	//   DomainDecompAndSync        8.06 s      746.0 J GPU
	//   FindNeighbors             21.31 s     2581.3 J GPU
	//   XMass                     16.23 s     1948.9 J GPU
	//   NormalizationGradh        15.48 s     1857.5 J GPU
	//   EquationOfState            0.37 s       37.6 J GPU
	//   IADVelocityDivCurl        29.89 s     5523.9 J GPU
	//   AVSwitches                 0.44 s       45.9 J GPU
	//   MomentumEnergy            40.25 s     7463.0 J GPU
	//   Timestep                   1.57 s       65.1 J GPU
	//   UpdateQuantities           0.71 s       73.9 J GPU
}

// stencilPipeline characterizes one time-step of a 7-point stencil CFD
// solver with a pressure-Poisson multigrid phase: two memory-bound sweeps,
// one compute-heavy smoother, one tiny reduction.
func stencilPipeline() []core.FuncModel {
	return []core.FuncModel{
		{
			Name:         "AdvectScalar",
			FlopsPerPart: 48, BytesPerPart: 180, // 7-point gather, low intensity
			Launches: 1, ItemFraction: 1,
			EffNvidia: 0.6, EffAMD: 0.4,
			CPUUtil: 0.05, MemUtil: 0.4,
		},
		{
			Name:         "DiffuseVelocity",
			FlopsPerPart: 90, BytesPerPart: 230,
			Launches: 3, ItemFraction: 1,
			EffNvidia: 0.55, EffAMD: 0.4,
			CPUUtil: 0.05, MemUtil: 0.4,
		},
		{
			Name:         "MultigridSmoother",
			FlopsPerPart: 2400, BytesPerPart: 260, // compute-heavy
			Launches: 12, ItemFraction: 1,
			EffNvidia: 0.45, EffAMD: 0.3,
			CPUUtil: 0.08, MemUtil: 0.25,
			Comm: core.CommHalo, CommBytesPerPart: 1.0,
		},
		{
			Name:         "ResidualNorm",
			FlopsPerPart: 8, BytesPerPart: 24,
			Launches: 1, ItemFraction: 1,
			EffNvidia: 0.6, EffAMD: 0.45,
			CPUUtil: 0.1, MemUtil: 0.1,
			Comm: core.CommAllreduce,
		},
	}
}

// The method applied to another simulation code (the paper's §V future
// work): a finite-difference stencil solver, not SPH at all, describes its
// kernels as FuncModels, tunes a clock per kernel as the paper tunes the SPH
// functions, and runs with ManDyn through the unmodified runner. Only the
// FuncModel table is application-specific.
func Example_customPipeline() {
	system := sphenergy.MiniHPC()
	const cells = 512 * 512 * 512 / 4 // grid cells per GPU

	table := map[string]int{}
	fmt.Println("per-kernel EDP tuning (1005-1410 MHz):")
	for _, fn := range stencilPipeline() {
		res, err := tuner.TuneKernel(fn.Name, fn.Kernel(cells, 0, gpusim.Nvidia), tuner.Config{
			Spec:   system.GPUSpec,
			Params: tuner.Params{MinMHz: 1005, MaxMHz: 1410},
		})
		if err != nil {
			log.Fatal(err)
		}
		table[fn.Name] = res.Best.MHz
		fmt.Printf("  %-18s -> %4d MHz\n", fn.Name, res.Best.MHz)
	}

	run := func(strategy func() sphenergy.Strategy) *sphenergy.Result {
		res, err := sphenergy.Run(sphenergy.Config{
			System:           system,
			Ranks:            2,
			Sim:              core.Custom,
			CustomPipeline:   stencilPipeline(),
			ParticlesPerRank: cells,
			Steps:            50,
			NewStrategy:      strategy,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	base := run(sphenergy.Baseline())
	md := run(sphenergy.ManDyn(table))
	fmt.Println("stencil code, 2 GPUs, 50 steps:")
	fmt.Printf("  baseline: %.1f s, %.0f J GPU\n", base.WallTimeS, base.GPUEnergyJ())
	fmt.Printf("  mandyn:   %.1f s, %.0f J GPU\n", md.WallTimeS, md.GPUEnergyJ())
	fmt.Printf("  -> %+.2f%% time, %+.2f%% GPU energy, %+.2f%% EDP\n",
		100*(md.WallTimeS/base.WallTimeS-1),
		100*(md.GPUEnergyJ()/base.GPUEnergyJ()-1),
		100*(md.GPUEDP()/base.GPUEDP()-1))
	// Output:
	// per-kernel EDP tuning (1005-1410 MHz):
	//   AdvectScalar       -> 1005 MHz
	//   DiffuseVelocity    -> 1005 MHz
	//   MultigridSmoother  -> 1410 MHz
	//   ResidualNorm       -> 1005 MHz
	// stencil code, 2 GPUs, 50 steps:
	//   baseline: 6.5 s, 2099 J GPU
	//   mandyn:   6.6 s, 1998 J GPU
	//   -> +0.88% time, -4.81% GPU energy, -3.97% EDP
}
