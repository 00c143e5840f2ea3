// Command sphexa runs an instrumented simulation at paper scale on a
// simulated Table I system and writes the per-function energy report.
//
// The flag names follow the SPH-EXA conventions of Table I: -n selects the
// total particle count (in billions when >= 0.1, otherwise interpreted as a
// lattice side), -s the step count.
//
// Examples:
//
//	sphexa -sim turbulence -system cscs-a100 -ranks 32 -s 100
//	sphexa -sim evrard -system lumi-g -ranks 32 -s 100 -out evrard
//	sphexa -sim turbulence -system minihpc -ranks 1 -strategy mandyn
//	sphexa -sim turbulence -ranks 4 -strategy mandyn -sample-hz 100 -out run
//	sphexa -sim turbulence -ranks 2 -s 3 -ppr 10e6 -energy-validate
//	sphexa -sim turbulence -ranks 2 -s 3 -ppr 10e6 -energy-validate \
//	    -fault-plan plan.json -degradation drop-rank
//	sphexa -sim turbulence -ranks 2 -s 10 -ppr 10e6 -walltime-budget 5 -out run
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"sphenergy"
	"sphenergy/internal/core"
	"sphenergy/internal/faults"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/report"
	"sphenergy/internal/sampler"
	"sphenergy/internal/slurm"
	"sphenergy/internal/telemetry"
)

func main() {
	var (
		simName  = flag.String("sim", "turbulence", "simulation: turbulence or evrard")
		system   = flag.String("system", "minihpc", "system: lumi-g, cscs-a100 or minihpc")
		ranks    = flag.Int("ranks", 1, "MPI ranks (one per GPU die)")
		steps    = flag.Int("s", 100, "time-steps")
		pprFlag  = flag.String("ppr", "", "particles per rank (e.g. 150e6 or 450^3); default per simulation and system")
		strategy = flag.String("strategy", "baseline", "frequency strategy: baseline, static:<mhz>, dvfs, mandyn, powercap:<watts>")
		ng       = flag.Int("ng", 150, "SPH neighbor count")
		outDir   = flag.String("out", "", "write the run bundle into this directory: report.json (energy report), trace.json (Chrome trace_event timeline, opens in Perfetto) and events.jsonl (decision ledger); read it with cmd/inspect")
		carbon   = flag.String("carbon", "", "report CO2e for a grid: hydro, swiss, eu, coal")
		quiet    = flag.Bool("q", false, "suppress breakdown output")

		cpuProfile = flag.String("cpuprofile", "", "write a runtime/pprof CPU profile to this path (per-pass samples carry a pass= pprof label)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this path at exit")

		sampleHz     = flag.Float64("sample-hz", 0, "async per-GPU power sampling rate in Hz (0 disables sampling)")
		sampleNodeHz = flag.Float64("sample-node-hz", sampler.DefaultNodeHz, "async node-sensor (BMC/pm_counters) sampling rate in Hz")
		validate     = flag.Bool("energy-validate", false, "run as a Slurm job with async sampling and print the per-kernel attribution and three-way cross-source energy validation")

		faultPlan   = flag.String("fault-plan", "", "fault-injection plan: a JSON file path or inline JSON (see internal/faults)")
		degradation = flag.String("degradation", "", "rank-failure degradation policy: abort, drop-rank or redistribute (default abort)")

		wallBudget   = flag.Float64("walltime-budget", 0, "stop at the first step boundary past this many seconds of simulated wall clock, write the outputs and exit 3 (0 = unlimited)")
		energyBudget = flag.Float64("energy-budget", 0, "stop at the first step boundary past this many joules of total allocation energy, write the outputs and exit 3 (0 = unlimited)")
	)
	flag.Parse()

	// Values the run would read as "off", "unlimited" or a default are
	// refused here, naming the flag, before anything is created or printed.
	if *steps == 0 {
		fatalIf(fmt.Errorf("-s 0: need at least one time-step"))
	}
	if *ng == 0 {
		fatalIf(fmt.Errorf("-ng 0: the run would use the default of 150 neighbors"))
	}
	if *sampleNodeHz == 0 {
		fatalIf(fmt.Errorf("-sample-node-hz 0: the node sensors would sample at the default %g Hz", float64(sampler.DefaultNodeHz)))
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"sample-hz", *sampleHz},
		{"sample-node-hz", *sampleNodeHz},
		{"walltime-budget", *wallBudget},
		{"energy-budget", *energyBudget},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			fatalIf(fmt.Errorf("-%s %v: want a finite value >= 0", f.name, f.v))
		}
	}
	// A flag only a mode reads is refused when set without that mode: the
	// run would ignore it and exit 0 as if it had been honoured.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "sample-hz" && *sampleHz > 0 && *outDir == "" && !*validate && *faultPlan == "" {
			fatalIf(fmt.Errorf("-sample-hz needs -out, -energy-validate or -fault-plan: without them nothing reads the samples"))
		}
		if f.Name == "sample-node-hz" && *sampleHz == 0 && !*validate {
			fatalIf(fmt.Errorf("-sample-node-hz needs -sample-hz or -energy-validate: without them nothing is sampled"))
		}
		if f.Name == "degradation" && *faultPlan == "" {
			fatalIf(fmt.Errorf("-degradation needs -fault-plan: without a plan no rank fails"))
		}
	})

	gridIntensity, err := resolveGrid(*carbon)
	fatalIf(err)
	if *outDir != "" {
		// A bad output path fails here, not after the run.
		fatalIf(os.MkdirAll(*outDir, 0o755))
	}

	// SIGINT and SIGTERM are caught from here until the run returns. The
	// handler only closes stopc, the run's Config.Stop: the run stops at its
	// next step boundary (at its first, when the signal comes during the
	// ManDyn sweep), and main writes what it did. A signal that comes after
	// the run ends the process as it would any program.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	stopc, handled := make(chan struct{}), make(chan struct{})
	var caught os.Signal // the signal that stopped the run, read after handled
	go func() {
		defer close(handled)
		if sig, ok := <-sigc; ok {
			caught = sig
			close(stopc)
		}
	}()

	var prof *telemetry.Profiler
	if *cpuProfile != "" || *memProfile != "" {
		prof, err = telemetry.StartProfiler(*cpuProfile, *memProfile)
		fatalIf(err)
	}
	// closeProf writes the profiles once, whether the run ends or a signal
	// stops it.
	closeProf := sync.OnceValue(prof.Close)
	defer func() { fatalIf(closeProf()) }()
	// exitWith writes the profiles (os.Exit skips defers) before leaving
	// with a contract code: 0 clean, 1 error, 3 budget stop, 128+sig signal
	// stop.
	exitWith := func(code int) {
		closeProf()
		os.Exit(code)
	}

	spec, err := sphenergy.SystemByName(*system)
	fatalIf(err)

	sim := core.SimKind(*simName)
	ppr, err := resolvePPR(*pprFlag, sim, spec)
	fatalIf(err)

	cfg := sphenergy.Config{
		System:           spec,
		Ranks:            *ranks,
		Sim:              sim,
		ParticlesPerRank: ppr,
		Steps:            *steps,
		Ng:               *ng,
		WalltimeBudgetS:  *wallBudget,
		EnergyBudgetJ:    *energyBudget,
		Stop:             stopc,
	}

	if *outDir != "" || *validate {
		// Attribution joins sampled power against kernel spans, so the
		// validation mode needs a tracer even without -out.
		cfg.Tracer = telemetry.NewTracer(*ranks)
	}
	// Mirror rank 0's frequency/power trajectory into the bundle's timeline.
	cfg.Trace = *outDir != ""
	if *validate && *sampleHz <= 0 {
		*sampleHz = sampler.DefaultGPUHz
	}
	if *sampleHz > 0 {
		cfg.Sampling = sampler.Config{GPUHz: *sampleHz, NodeHz: *sampleNodeHz}
	}
	if *outDir != "" {
		// The bundle's events.jsonl (the decision ledger).
		cfg.Events = sphenergy.NewEventLedger(0)
	}
	if *faultPlan != "" {
		plan, err := faults.LoadPlan(*faultPlan)
		fatalIf(err)
		cfg.Faults = plan
	}
	cfg.Degradation = *degradation
	cfg.ProfileLabels = *cpuProfile != ""
	// A configuration the run would refuse fails here, before the ManDyn
	// sweep prints its table.
	fatalIf(cfg.Validate())

	if (*wallBudget > 0 || *energyBudget > 0) && *validate {
		fatalIf(fmt.Errorf("-energy-validate cannot be combined with budgets"))
	}

	switch {
	case *strategy == "baseline":
		cfg.NewStrategy = sphenergy.Baseline()
	case *strategy == "dvfs":
		cfg.NewStrategy = sphenergy.DVFS()
	case strings.HasPrefix(*strategy, "static:"):
		mhz, err := strconv.Atoi(strings.TrimPrefix(*strategy, "static:"))
		fatalIf(err)
		// The device would snap any other value to its nearest clock, and
		// the report would be labelled with a clock it never ran.
		if !slices.Contains(spec.GPUSpec.SupportedClocksMHz(), mhz) {
			fatalIf(fmt.Errorf("-strategy %s: %s's clock table has no %d MHz (%d-%d MHz in %d MHz steps)",
				*strategy, spec.Name, mhz, spec.GPUSpec.MinSMClockMHz, spec.GPUSpec.MaxSMClockMHz, spec.GPUSpec.SMClockStepMHz))
		}
		cfg.NewStrategy = sphenergy.StaticMHz(mhz)
	case strings.HasPrefix(*strategy, "powercap:"):
		w, err := strconv.ParseFloat(strings.TrimPrefix(*strategy, "powercap:"), 64)
		fatalIf(err)
		if !(w > 0) || math.IsInf(w, 1) {
			fatalIf(fmt.Errorf("-strategy %s: want a finite power cap > 0 W", *strategy))
		}
		cfg.NewStrategy = func() sphenergy.Strategy { return freqctl.PowerCap{Watts: w} }
	case *strategy == "mandyn":
		// Observe the search through the ledger: sweep measurements become
		// tuner events carrying the predicted time/power/EDP, the ledger's
		// preamble, which `inspect decisions` joins the run's frequency
		// decisions to.
		table, err := sphenergy.TuneFrequenciesObserved(spec, sim, ppr, *ng, cfg.Events)
		fatalIf(err)
		fmt.Println("tuned per-function frequencies (MHz):")
		for _, fn := range core.PipelineFunctionNames(sim) {
			fmt.Printf("  %-22s %d\n", fn, table[fn])
		}
		cfg.NewStrategy = sphenergy.ManDyn(table)
	default:
		fatalIf(fmt.Errorf("unknown strategy %q", *strategy))
	}

	var res *sphenergy.Result
	// stop is the budget that ended the run early, nil when none did.
	var stop error
	var runErr error
	if *validate {
		// Run as a Slurm job so the three-way validation can compare the
		// sampled sensors and pm_counters against ConsumedEnergy accounting.
		mgr := slurm.NewManager()
		var job *slurm.Job
		if job, runErr = mgr.Submit(cfg, slurm.SubmitOptions{
			JobName: string(sim),
			TRES:    slurm.ParseTRES("billing,cpu,energy,gres/gpu"),
		}); runErr == nil {
			_, runErr = slurm.ThreeWay(job, 0)
			res = job.Result
		}
	} else {
		res, runErr = sphenergy.Run(cfg)
		if errors.Is(runErr, core.ErrWalltimeBudget) || errors.Is(runErr, core.ErrEnergyBudget) {
			stop, runErr = runErr, nil
		}
	}

	// A signal that stopped the run is handled before its outcome: sphexa
	// writes the bundle of the steps done — the trace and ledger, without
	// a report — and exits 128+sig.
	signal.Stop(sigc)
	close(sigc)
	<-handled
	if caught != nil {
		code := 128 + int(syscall.SIGTERM)
		if s, ok := caught.(syscall.Signal); ok {
			code = 128 + int(s)
		}
		fmt.Fprintf(os.Stderr, "sphexa: %v: flushing partial outputs\n", caught)
		if *outDir != "" {
			if err := sphenergy.WriteBundle(*outDir, cfg, nil); err != nil {
				fmt.Fprintln(os.Stderr, "sphexa:", err)
			}
		}
		exitWith(code)
	}
	fatalIf(runErr)

	fmt.Printf("simulation %s on %s: %d ranks, %d steps, %.3g particles/rank\n",
		sim, spec.Name, *ranks, *steps, ppr)
	fmt.Printf("time-to-solution: %.1f s\n", res.WallTimeS)
	fmt.Printf("total energy:     %.3f MJ (GPU %.3f MJ)\n",
		res.EnergyJ()/1e6, res.GPUEnergyJ()/1e6)
	fmt.Printf("EDP:              %.4g J*s\n", res.EDP())

	if res.Report.Attribution != nil {
		fmt.Println()
		fmt.Print(report.RenderAttribution(res.Report.Attribution, 12))
	}
	if res.Report.Validation != nil {
		fmt.Println()
		fmt.Print(report.RenderValidation(res.Report.Validation))
	}
	if res.Report.Faults != nil {
		fmt.Println()
		fmt.Print(report.RenderFaults(res.Report.Faults))
	}

	if !*quiet {
		db := report.NewDeviceBreakdown(res.Report, spec, string(sim))
		fmt.Println()
		fmt.Print(db.Render())
		fb := report.NewFunctionBreakdown(res.Report, string(sim))
		fmt.Println()
		fmt.Print(fb.Render())
	}

	if *carbon != "" {
		kwh := res.EnergyJ() / 3.6e6
		fmt.Printf("\ncarbon footprint: %.2f kWh at %.0f gCO2e/kWh -> %.3f kg CO2e\n",
			kwh, gridIntensity, kwh*gridIntensity/1000)
	}

	if *outDir != "" {
		fatalIf(sphenergy.WriteBundle(*outDir, cfg, res.Report))
		fmt.Printf("\nbundle written to %s (%d trace events, %d ledger events)\n",
			*outDir, cfg.Tracer.Len(), cfg.Events.Emitted())
	}

	if stop != nil {
		fmt.Printf("stopped early (%v) after %d of %d step(s)\n", stop, len(res.StepBoundariesS), *steps)
		exitWith(3)
	}
}

// resolvePPR parses the particles-per-rank flag: "450^3" lattice notation,
// scientific notation, or the defaults of the paper's runs — Table I's
// 80e6 for Evrard and 150e6 for Turbulence, except on miniHPC, whose 40 GB
// GPUs ran Turbulence at 450³ in every experiment.
func resolvePPR(s string, sim core.SimKind, system sphenergy.NodeSpec) (float64, error) {
	if s == "" {
		switch {
		case sim == core.Evrard:
			return 80e6, nil
		case system.Name == sphenergy.MiniHPC().Name:
			return 450 * 450 * 450, nil
		}
		return 150e6, nil
	}
	if strings.HasSuffix(s, "^3") {
		side, err := strconv.Atoi(strings.TrimSuffix(s, "^3"))
		if err != nil {
			return 0, fmt.Errorf("invalid lattice notation %q", s)
		}
		return float64(side) * float64(side) * float64(side), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid particles-per-rank %q", s)
	}
	return v, nil
}

// gridCO2e is the emission intensity in gCO2e/kWh of the grids -carbon
// names: order-of-magnitude values for the regions hosting the paper's
// systems (the Nordic grid powering LUMI, the Swiss mix at CSCS, the EU
// average) and a coal-dominated grid for contrast.
var gridCO2e = map[string]float64{"hydro": 30, "swiss": 100, "eu": 250, "coal": 700}

// resolveGrid maps the -carbon flag to its intensity; empty means no
// carbon line.
func resolveGrid(name string) (float64, error) {
	g, ok := gridCO2e[name]
	if !ok && name != "" {
		return 0, fmt.Errorf("unknown grid %q (want hydro, swiss, eu or coal)", name)
	}
	return g, nil
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sphexa:", err)
		os.Exit(1)
	}
}
