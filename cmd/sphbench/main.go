// Command sphbench measures the real SPH compute layer pass by pass — the
// per-function decomposition the paper attributes energy to — and writes
// the results as machine-readable JSON for regression tracking. Each
// problem size is run twice: with the closure-walk reference pipeline and
// with the production pipeline (Verlet-skin candidates, folded pair list)
// — so the file records its own reference comparison and future PRs diff
// against a stable schema (internal/benchfmt; cmd/perfgate is the
// consumer).
//
// Passes are timed through the pipeline's own Options.PassHook, so the
// benchmark exercises the exact RunStep the simulator runs, and
// -cpuprofile attaches per-pass pprof labels through Options.WrapPass.
//
// Examples:
//
//	sphbench -sizes 20,30 -steps 4 -out BENCH_sph.json
//	sphbench -sizes 20 -gomaxprocs 1,2,4,8       # parallel-efficiency sweep
//	sphbench -sizes 30 -cpuprofile cpu.pprof -memprofile heap.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"sphenergy/internal/benchfmt"
	"sphenergy/internal/initcond"
	"sphenergy/internal/sph"
	"sphenergy/internal/telemetry"
)

// profiling is set when -cpuprofile is active; it gates the per-pass pprof
// labels (pprof.Do allocates, so the labels stay off the unprofiled path).
var profiling bool

// passMetrics, when non-nil (-metrics-out), collects pass_seconds
// histograms (p50/p95/p99 per pass) across every mode and size.
var passMetrics *telemetry.Registry

// runMode times every pipeline pass over the given number of steps on a
// fresh Turbulence state, through the pipeline's own PassHook so the timed
// code path is RunStep itself. SFC reordering is disabled so both modes
// advance identical trajectories and the comparison is pure pipeline cost.
func runMode(nSide, warmup, steps int, closureWalk bool) (benchfmt.ModeResult, int) {
	p, opt := initcond.Turbulence(initcond.DefaultTurbulence(nSide))
	opt.ClosureWalk = closureWalk
	opt.ReorderEvery = 0

	acc := make(map[string]float64, len(benchfmt.PassNames))
	var rebuildS, refreshS float64
	var st *sph.State
	lastRebuilds := 0
	histHook := telemetry.PassHistogramHook(passMetrics, "pass_seconds",
		"wall-clock latency per SPH pipeline pass")
	opt.PassHook = func(pass string, seconds float64) {
		acc[pass] += seconds
		if histHook != nil {
			histHook(pass, seconds)
		}
		if pass == sph.PassFindNeighbors {
			if st.NbrStats.Rebuilds > lastRebuilds {
				rebuildS += seconds
			} else {
				refreshS += seconds
			}
			lastRebuilds = st.NbrStats.Rebuilds
		}
	}
	if profiling {
		opt.WrapPass = func(pass string, run func()) {
			telemetry.DoLabeled(true, "pass", pass, run)
		}
	}
	st = sph.NewState(p, opt)

	var ms runtime.MemStats
	var mallocsBase uint64
	statsBase := st.NbrStats
	for s := 0; s < warmup+steps; s++ {
		if s == warmup {
			for k := range acc {
				delete(acc, k)
			}
			rebuildS, refreshS = 0, 0
			statsBase = st.NbrStats
			runtime.ReadMemStats(&ms)
			mallocsBase = ms.Mallocs
		}
		st.RunStep(nil)
	}
	runtime.ReadMemStats(&ms)

	res := benchfmt.ModeResult{
		NsPerParticleStep: make(map[string]float64, len(benchfmt.PassNames)+1),
		AllocsPerStep:     float64(ms.Mallocs-mallocsBase) / float64(steps),
	}
	denom := float64(p.N) * float64(steps)
	var totalS float64
	for _, name := range benchfmt.PassNames {
		d := acc[name]
		totalS += d
		res.NsPerParticleStep[name] = d * 1e9 / denom
	}
	res.NsPerParticleStep[benchfmt.TotalKey] = totalS * 1e9 / denom
	res.StepMs = totalS * 1e3 / float64(steps)

	if !closureWalk {
		rebuilds := st.NbrStats.Rebuilds - statsBase.Rebuilds
		refreshes := st.NbrStats.Refreshes - statsBase.Refreshes
		res.Skin = opt.Skin
		res.Rebuilds = rebuilds
		res.Refreshes = refreshes
		if rebuilds > 0 {
			res.RebuildIntervalSteps = float64(rebuilds+refreshes) / float64(rebuilds)
			res.RebuildNsPerParticle = rebuildS * 1e9 / (float64(p.N) * float64(rebuilds))
		}
		if refreshes > 0 {
			res.RefreshNsPerParticle = refreshS * 1e9 / (float64(p.N) * float64(refreshes))
		}
	}
	return res, opt.NgTarget
}

// runSweep measures the production pipeline at each GOMAXPROCS
// setting and derives per-pass parallel efficiency t1/(P·tP) against the
// sweep's lowest-proc measured point (exact t1 when the list includes 1).
// Points whose worker count exceeds the machine's logical CPUs are
// recorded as skipped rather than measured: oversubscribed workers time
// scheduler contention, not scaling, and would poison the efficiency
// fields. GOMAXPROCS is restored afterwards.
func runSweep(nSide, warmup, steps int, procs []int) []benchfmt.SweepPoint {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	points := make([]benchfmt.SweepPoint, 0, len(procs))
	for _, p := range procs {
		if p > runtime.NumCPU() {
			points = append(points, benchfmt.SweepPoint{Procs: p, Skipped: true})
			fmt.Printf("  gomaxprocs %d: skipped (only %d CPUs)\n", p, runtime.NumCPU())
			continue
		}
		runtime.GOMAXPROCS(p)
		mode, _ := runMode(nSide, warmup, steps, false)
		points = append(points, benchfmt.SweepPoint{
			Procs:             p,
			NsPerParticleStep: mode.NsPerParticleStep,
			StepMs:            mode.StepMs,
		})
		fmt.Printf("  gomaxprocs %d: %.1f ms/step\n", p, mode.StepMs)
	}

	var base *benchfmt.SweepPoint
	for i := range points {
		if !points[i].Skipped {
			base = &points[i]
			break
		}
	}
	if base == nil {
		return points
	}
	for i := range points {
		pt := &points[i]
		if pt.Skipped {
			continue
		}
		pt.SpeedupVs1 = base.StepMs / pt.StepMs
		pt.Efficiency = make(map[string]float64, len(pt.NsPerParticleStep))
		scale := float64(base.Procs) / float64(pt.Procs)
		for pass, ns := range pt.NsPerParticleStep {
			if ns > 0 {
				pt.Efficiency[pass] = base.NsPerParticleStep[pass] / ns * scale
			}
		}
	}
	return points
}

func parseInts(csv, what string) []int {
	var out []int
	for _, tok := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "sphbench: bad %s %q\n", what, tok)
			os.Exit(1)
		}
		out = append(out, v)
	}
	return out
}

func main() {
	sizes := flag.String("sizes", "20,30", "comma-separated lattice side lengths (n_side³ particles each)")
	steps := flag.Int("steps", 4, "measured steps per run")
	warmup := flag.Int("warmup", 1, "warmup steps excluded from timing")
	out := flag.String("out", "BENCH_sph.json", "output path for the JSON results")
	gomaxprocs := flag.String("gomaxprocs", "", "comma-separated GOMAXPROCS sweep (e.g. 1,2,4,8); adds per-pass parallel-efficiency fields")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile with per-pass pprof labels to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	metricsOut := flag.String("metrics-out", "", "write per-pass latency histograms (JSON snapshot with quantiles) to this path")
	flag.Parse()

	if *metricsOut != "" {
		passMetrics = telemetry.NewRegistry()
	}

	if *cpuProfile != "" || *memProfile != "" {
		prof, err := telemetry.StartProfiler(*cpuProfile, *memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sphbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := prof.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "sphbench: %v\n", err)
			}
		}()
		profiling = *cpuProfile != ""
	}

	var sweepProcs []int
	if *gomaxprocs != "" {
		sweepProcs = parseInts(*gomaxprocs, "gomaxprocs")
	}

	o := benchfmt.Output{
		Benchmark:  "sph_pipeline",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, nSide := range parseInts(*sizes, "size") {
		if nSide < 2 {
			fmt.Fprintf(os.Stderr, "sphbench: size %d too small\n", nSide)
			os.Exit(1)
		}
		fmt.Printf("size %d³ (%d particles): closure walk...", nSide, nSide*nSide*nSide)
		walk, ngTarget := runMode(nSide, *warmup, *steps, true)
		fmt.Printf(" %.1f ms/step; neighbor list...", walk.StepMs)
		list, _ := runMode(nSide, *warmup, *steps, false)
		sr := benchfmt.SizeResult{
			NSide:    nSide,
			N:        nSide * nSide * nSide,
			NgTarget: ngTarget,
			Warmup:   *warmup,
			Steps:    *steps,
			Modes: map[string]benchfmt.ModeResult{
				"closure_walk":  walk,
				"neighbor_list": list,
			},
			SpeedupTotal: walk.StepMs / list.StepMs,
		}
		fmt.Printf(" %.1f ms/step (%.2fx walk; rebuild %.0f, refresh %.0f ns/particle)\n",
			list.StepMs, sr.SpeedupTotal, list.RebuildNsPerParticle, list.RefreshNsPerParticle)
		if len(sweepProcs) > 0 {
			fmt.Printf("  gomaxprocs sweep %v on the neighbor list:\n", sweepProcs)
			sr.Sweep = runSweep(nSide, *warmup, *steps, sweepProcs)
		}
		o.Sizes = append(o.Sizes, sr)
	}

	if err := o.WriteFile(*out); err != nil {
		fmt.Fprintf(os.Stderr, "sphbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
	if passMetrics != nil {
		if err := passMetrics.WriteFile(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "sphbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("pass latency histograms written to %s\n", *metricsOut)
	}
}
