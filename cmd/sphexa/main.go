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
//	sphexa -sim evrard -system lumi-g -ranks 32 -s 100 -report evrard.json
//	sphexa -sim turbulence -system minihpc -ranks 1 -strategy mandyn
//	sphexa -sim turbulence -ranks 4 -strategy mandyn -trace-out run.trace.json \
//	    -metrics-out metrics.json -metrics-addr :9090
//	sphexa -sim turbulence -ranks 2 -s 3 -ppr 10e6 -energy-validate
//	sphexa -sim turbulence -ranks 2 -s 3 -ppr 10e6 -energy-validate \
//	    -fault-plan plan.json -degradation drop-rank
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"

	"sphenergy"
	"sphenergy/internal/core"
	"sphenergy/internal/faults"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/recovery"
	"sphenergy/internal/report"
	"sphenergy/internal/sampler"
	"sphenergy/internal/slurm"
	"sphenergy/internal/telemetry"
)

func main() {
	var (
		simName   = flag.String("sim", "turbulence", "simulation: turbulence or evrard")
		system    = flag.String("system", "minihpc", "system: lumi-g, cscs-a100 or minihpc")
		ranks     = flag.Int("ranks", 1, "MPI ranks (one per GPU die)")
		steps     = flag.Int("s", 100, "time-steps")
		pprFlag   = flag.String("ppr", "", "particles per rank (e.g. 150e6 or 450^3); default per simulation")
		strategy  = flag.String("strategy", "baseline", "frequency strategy: baseline, static:<mhz>, dvfs, mandyn, powercap:<watts>")
		ng        = flag.Int("ng", 150, "SPH neighbor count")
		reportOut = flag.String("report", "", "write the JSON energy report to this path")
		csvOut    = flag.String("csv", "", "write the per-function CSV export to this path")
		carbon    = flag.String("carbon", "", "report CO2e for a grid: hydro, swiss, eu, coal")
		quiet     = flag.Bool("q", false, "suppress breakdown output")

		traceOut    = flag.String("trace-out", "", "write the run timeline as Chrome trace_event JSON (open in Perfetto or chrome://tracing)")
		metricsOut  = flag.String("metrics-out", "", "write the metrics JSON snapshot to this path")
		eventsOut   = flag.String("events-out", "", "write the decision ledger as JSONL to this path (audit with cmd/declog)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus text format on this address at /metrics during the run (e.g. :9090); also mounts /metrics.json, /healthz, /debug/pprof/ and — when the decision ledger is on — /events (SSE) and /status")
		cpuProfile  = flag.String("cpuprofile", "", "write a runtime/pprof CPU profile to this path (per-pass samples carry a pass= pprof label)")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this path at exit")

		sampleHz     = flag.Float64("sample-hz", 0, "async per-GPU power sampling rate in Hz (0 disables sampling)")
		sampleNodeHz = flag.Float64("sample-node-hz", sampler.DefaultNodeHz, "async node-sensor (BMC/pm_counters) sampling rate in Hz")
		validate     = flag.Bool("energy-validate", false, "run as a Slurm job with async sampling and print the per-kernel attribution and three-way cross-source energy validation")

		faultPlan   = flag.String("fault-plan", "", "fault-injection plan: a JSON file path or inline JSON (see internal/faults)")
		degradation = flag.String("degradation", "", "rank-failure degradation policy: abort, drop-rank or redistribute (default abort)")

		ckptDir      = flag.String("checkpoint-dir", "", "durable checkpoint directory; enables supervised crash recovery")
		autosave     = flag.Int("autosave-every", 10, "checkpoint every N completed steps (0 = final checkpoint only)")
		keepCkpts    = flag.Int("keep-checkpoints", 0, "checkpoint retention depth (0 = default)")
		maxRestarts  = flag.Int("max-restarts", 2, "bounded supervisor restarts after a crash or watchdog stall")
		wallBudget   = flag.Float64("walltime-budget", 0, "stop gracefully once the simulated wall clock passes this many seconds (0 = unlimited)")
		energyBudget = flag.Float64("energy-budget", 0, "stop gracefully once total allocation energy passes this many joules (0 = unlimited)")
	)
	flag.Parse()

	gridIntensity, err := resolveGrid(*carbon)
	fatalIf(err)

	var prof *telemetry.Profiler
	if *cpuProfile != "" || *memProfile != "" {
		var err error
		prof, err = telemetry.StartProfiler(*cpuProfile, *memProfile)
		fatalIf(err)
		defer func() { fatalIf(prof.Close()) }()
	}

	spec, err := sphenergy.SystemByName(*system)
	fatalIf(err)

	sim := core.SimKind(*simName)
	ppr, err := resolvePPR(*pprFlag, sim)
	fatalIf(err)

	cfg := sphenergy.Config{
		System:           spec,
		Ranks:            *ranks,
		Sim:              sim,
		ParticlesPerRank: ppr,
		Steps:            *steps,
		Ng:               *ng,
	}

	if *traceOut != "" {
		cfg.Tracer = telemetry.NewTracer(*ranks)
		// Mirror rank 0's frequency/power trajectory into the timeline.
		cfg.Trace, cfg.TraceRank = true, 0
	}
	if *validate && *sampleHz <= 0 {
		*sampleHz = sampler.DefaultGPUHz
	}
	if *sampleHz > 0 {
		cfg.Sampling = sampler.Config{GPUHz: *sampleHz, NodeHz: *sampleNodeHz}
	}
	if *validate && cfg.Tracer == nil {
		// Attribution joins sampled power against kernel spans, so the
		// validation mode needs a tracer even without -trace-out.
		cfg.Tracer = telemetry.NewTracer(*ranks)
	}
	if *metricsOut != "" || *metricsAddr != "" {
		cfg.Metrics = telemetry.NewRegistry()
	}
	if *eventsOut != "" || *metricsAddr != "" {
		// The decision ledger: exported as JSONL for cmd/declog, and served
		// live (SSE + status) when an HTTP listener is up anyway.
		cfg.Events = sphenergy.NewEventLedger(0)
	}
	if *faultPlan != "" {
		plan, err := faults.LoadPlan(*faultPlan)
		fatalIf(err)
		cfg.Faults = plan
	}
	cfg.Degradation = *degradation
	cfg.ProfileLabels = *cpuProfile != ""
	if *metricsAddr != "" {
		var mounts []sphenergy.Mount
		if cfg.Events != nil {
			mounts = append(mounts,
				sphenergy.Mount{Pattern: "/events", Handler: cfg.Events.SSEHandler()},
				sphenergy.Mount{Pattern: "/status", Handler: cfg.Events.StatusHandler()})
		}
		srv, err := telemetry.ServeMetrics(*metricsAddr, cfg.Metrics, mounts...)
		fatalIf(err)
		defer srv.Close()
		fmt.Printf("serving metrics on http://%s/metrics\n", srv.Addr)
	}

	// On SIGINT/SIGTERM, flush the streaming outputs before dying so a
	// cancelled job still leaves an analyzable partial trace, metrics
	// snapshot and decision ledger on disk. The writers snapshot under
	// their own locks, so flushing mid-step is safe; declog and tracetool
	// both tolerate the truncated tail.
	flushOutputs := func(w *os.File) {
		if *traceOut != "" && cfg.Tracer != nil {
			if err := cfg.Tracer.WriteFile(*traceOut); err == nil {
				fmt.Fprintf(w, "trace written to %s (%d events)\n", *traceOut, cfg.Tracer.Len())
			}
		}
		if *metricsOut != "" && cfg.Metrics != nil {
			if err := cfg.Metrics.WriteFile(*metricsOut); err == nil {
				fmt.Fprintf(w, "metrics written to %s\n", *metricsOut)
			}
		}
		if *eventsOut != "" && cfg.Events != nil {
			if err := cfg.Events.WriteFile(*eventsOut); err == nil {
				fmt.Fprintf(w, "events written to %s (%d emitted)\n", *eventsOut, cfg.Events.Emitted())
			}
		}
	}
	// With recovery on, the first signal requests a graceful stop: the run
	// writes a final checkpoint at the next step boundary and sphexa exits
	// 128+sig after flushing its outputs; a second signal (or any signal
	// with recovery off) forces the old immediate flush-and-die path.
	recoveryOn := *ckptDir != "" || *wallBudget > 0 || *energyBudget > 0
	if recoveryOn && *validate {
		fatalIf(fmt.Errorf("-energy-validate cannot be combined with -checkpoint-dir or budgets"))
	}
	var curCtl atomic.Pointer[recovery.Controller]
	var sigCode atomic.Int32
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		for sig := range sigc {
			code := 128 + int(syscall.SIGTERM)
			if s, ok := sig.(syscall.Signal); ok {
				code = 128 + int(s)
			}
			if ctl := curCtl.Load(); ctl != nil && sigCode.Swap(int32(code)) == 0 {
				fmt.Fprintf(os.Stderr,
					"sphexa: %v: stopping gracefully with a final checkpoint (repeat to force quit)\n", sig)
				ctl.RequestStop("signal:" + sig.String())
				continue
			}
			fmt.Fprintf(os.Stderr, "sphexa: %v: flushing partial outputs\n", sig)
			flushOutputs(os.Stderr)
			os.Exit(code)
		}
	}()

	switch {
	case *strategy == "baseline":
		cfg.NewStrategy = sphenergy.Baseline()
	case *strategy == "dvfs":
		cfg.NewStrategy = sphenergy.DVFS()
	case strings.HasPrefix(*strategy, "static:"):
		mhz, err := strconv.Atoi(strings.TrimPrefix(*strategy, "static:"))
		fatalIf(err)
		cfg.NewStrategy = sphenergy.StaticMHz(mhz)
	case strings.HasPrefix(*strategy, "powercap:"):
		w, err := strconv.ParseFloat(strings.TrimPrefix(*strategy, "powercap:"), 64)
		fatalIf(err)
		cfg.NewStrategy = func() sphenergy.Strategy { return freqctl.PowerCap{Watts: w} }
	case *strategy == "mandyn":
		// Observe the search through the ledger: sweep measurements become
		// tuner events and the predicted time/power/EDP table rides on every
		// frequency decision the run makes (cmd/declog joins the two).
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

	// exitWith flushes the profiler (os.Exit skips defers) before leaving
	// with a contract code: 0 clean, 1 error, 3 budget-stop, 4 restarts
	// exhausted, 128+sig signal stop.
	exitWith := func(code int) {
		if prof != nil {
			prof.Close()
		}
		os.Exit(code)
	}

	var res *sphenergy.Result
	var outcome *sphenergy.RecoveryOutcome
	if recoveryOn {
		rcfg := sphenergy.RecoveryConfig{
			Dir:             *ckptDir,
			AutosaveEvery:   *autosave,
			Keep:            *keepCkpts,
			MaxRestarts:     *maxRestarts,
			Seed:            cfg.Seed,
			WalltimeBudgetS: *wallBudget,
			EnergyBudgetJ:   *energyBudget,
			Events:          cfg.Events,
			Metrics:         cfg.Metrics,
			OnAttempt:       func(ctl *recovery.Controller) { curCtl.Store(ctl) },
		}
		var err error
		res, outcome, err = sphenergy.RunSupervised(cfg, rcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sphexa:", err)
			if outcome != nil && outcome.Status == recovery.StatusRestartsExhausted {
				flushOutputs(os.Stderr)
				exitWith(4)
			}
			exitWith(1)
		}
		if outcome.Resumed {
			fmt.Printf("recovery: resumed from step %d (%d attempt(s), %d restart(s))\n",
				outcome.ResumeStep, outcome.Attempts, outcome.Restarts)
		}
	} else if *validate {
		// Run as a Slurm job so the three-way validation can compare the
		// sampled sensors and pm_counters against ConsumedEnergy accounting.
		mgr := slurm.NewManager()
		job, err := mgr.Submit(cfg, slurm.SubmitOptions{
			JobName: string(sim),
			TRES:    slurm.ParseTRES("billing,cpu,energy,gres/gpu"),
		})
		fatalIf(err)
		_, err = slurm.ThreeWay(job, 0)
		fatalIf(err)
		res = job.Result
	} else {
		var err error
		res, err = sphenergy.Run(cfg)
		fatalIf(err)
	}

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

	if *reportOut != "" {
		fatalIf(res.Report.WriteFile(*reportOut))
		fmt.Printf("\nreport written to %s\n", *reportOut)
	}
	if *csvOut != "" {
		fatalIf(res.Report.WriteCSVFile(*csvOut))
		fmt.Printf("CSV written to %s\n", *csvOut)
	}
	if *traceOut != "" {
		fatalIf(cfg.Tracer.WriteFile(*traceOut))
		fmt.Printf("trace written to %s (%d events)\n", *traceOut, cfg.Tracer.Len())
	}
	if *metricsOut != "" {
		fatalIf(cfg.Metrics.WriteFile(*metricsOut))
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}
	if *eventsOut != "" {
		fatalIf(cfg.Events.WriteFile(*eventsOut))
		fmt.Printf("events written to %s (%d emitted)\n", *eventsOut, cfg.Events.Emitted())
	}

	if outcome != nil {
		if rc := res.Recovery; rc != nil && rc.Checkpoints > 0 {
			fmt.Printf("recovery: %d checkpoint(s) in %s (last %s)\n",
				rc.Checkpoints, *ckptDir, rc.LastCheckpoint)
		}
		if outcome.Status == recovery.StatusStopped {
			fmt.Printf("recovery: stopped early (%s) after %d step(s); resume by re-running with the same flags\n",
				outcome.StopCause, len(res.StepBoundariesS))
			if code := sigCode.Load(); code != 0 {
				exitWith(int(code))
			}
			exitWith(3)
		}
	}
}

// resolvePPR parses the particles-per-rank flag: "450^3" lattice notation,
// scientific notation, or the per-simulation defaults of Table I.
func resolvePPR(s string, sim core.SimKind) (float64, error) {
	if s == "" {
		if sim == core.Evrard {
			return 80e6, nil
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
