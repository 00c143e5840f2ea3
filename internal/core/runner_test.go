package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/freqctl"
)

func miniConfig() Config {
	return Config{
		System:           cluster.MiniHPC(),
		Ranks:            1,
		Sim:              Turbulence,
		ParticlesPerRank: 27e6, // 300^3
		Steps:            5,
	}
}

func TestRunProducesCompleteReport(t *testing.T) {
	res, err := Run(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if res.WallTimeS <= 0 {
		t.Error("no wall time")
	}
	if len(r.Ranks) != 1 {
		t.Fatalf("%d rank profiles", len(r.Ranks))
	}
	names := r.FunctionNames()
	want := PipelineFunctionNames(Turbulence)
	if len(names) != len(want) {
		t.Fatalf("report has %d functions, want %d", len(names), len(want))
	}
	for i := range names {
		if names[i] != want[i] {
			t.Errorf("function %d = %q, want %q", i, names[i], want[i])
		}
	}
	for _, fn := range names {
		st := r.FunctionTotal(fn)
		if st.Calls != 5 {
			t.Errorf("%s called %d times, want 5 (one per step)", fn, st.Calls)
		}
		if st.TimeS <= 0 || st.GPUJ <= 0 {
			t.Errorf("%s has empty measurements: %+v", fn, st)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.WallTimeS != b.WallTimeS {
		t.Errorf("wall time differs: %v vs %v", a.WallTimeS, b.WallTimeS)
	}
	if a.Report.TotalEnergyJ != b.Report.TotalEnergyJ {
		t.Errorf("energy differs: %v vs %v", a.Report.TotalEnergyJ, b.Report.TotalEnergyJ)
	}
}

func TestRunSeedChangesJitter(t *testing.T) {
	cfgA := miniConfig()
	cfgA.Ranks = 4
	cfgA.Ranks = 2
	cfgB := cfgA
	cfgB.Seed = 99
	a, _ := Run(cfgA)
	b, _ := Run(cfgB)
	if a.WallTimeS == b.WallTimeS {
		t.Error("different seeds produced identical wall times (jitter inactive)")
	}
}

func TestReportTotalsMatchDeviceClasses(t *testing.T) {
	res, err := Run(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	sum := r.GPUEnergyJ + r.CPUEnergyJ + r.MemEnergyJ + r.OtherEnergyJ
	if math.Abs(sum-r.TotalEnergyJ) > 1e-6 {
		t.Errorf("class sum %v != total %v", sum, r.TotalEnergyJ)
	}
	// Per-function GPU energies sum to the GPU total (single rank, no
	// setup phase).
	var fnSum float64
	for _, fn := range r.FunctionNames() {
		fnSum += r.FunctionTotal(fn).GPUJ
	}
	if math.Abs(fnSum-r.GPUEnergyJ) > 1e-6*r.GPUEnergyJ {
		t.Errorf("per-function GPU sum %v != GPU total %v", fnSum, r.GPUEnergyJ)
	}
}

func TestMultiRankAllocation(t *testing.T) {
	cfg := Config{
		System:           cluster.CSCSA100(),
		Ranks:            8, // 2 nodes
		Sim:              Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            3,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.System.Nodes) != 2 {
		t.Errorf("%d nodes allocated, want 2", len(res.System.Nodes))
	}
	if len(res.Report.Ranks) != 8 {
		t.Errorf("%d rank profiles", len(res.Report.Ranks))
	}
	// All node GPUs were exercised.
	for ni, n := range res.System.Nodes {
		for di, d := range n.Devices {
			if d.EnergyJ() <= 0 {
				t.Errorf("node %d device %d never ran", ni, di)
			}
		}
	}
}

func TestMemoryCapacityValidation(t *testing.T) {
	cfg := miniConfig()
	cfg.ParticlesPerRank = 200e6 // 56 GB > miniHPC's 40 GB
	if _, err := Run(cfg); err == nil {
		t.Error("over-capacity run accepted (the paper's §IV-C constraint)")
	}
	// The same size fits on CSCS-A100's 80 GB cards.
	cfg.System = cluster.CSCSA100()
	cfg.Steps = 2
	if _, err := Run(cfg); err != nil {
		t.Errorf("CSCS should fit 200M particles: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := miniConfig()
	bad.Ranks = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero ranks accepted")
	}
	bad = miniConfig()
	bad.ParticlesPerRank = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero particles accepted")
	}
	bad = miniConfig()
	bad.Sim = "magnetohydrodynamics"
	if _, err := Run(bad); err == nil {
		t.Error("unknown sim accepted")
	}
}

func TestSetupPhaseAccounting(t *testing.T) {
	cfg := miniConfig()
	cfg.SetupS = 30
	withSetup, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SetupS = 0
	without, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withSetup.SetupEnergyJ <= 0 {
		t.Error("setup energy not recorded")
	}
	// The loop-only report should match the no-setup run closely.
	rel := math.Abs(withSetup.Report.TotalEnergyJ-without.Report.TotalEnergyJ) /
		without.Report.TotalEnergyJ
	if rel > 0.02 {
		t.Errorf("setup leaked into loop accounting: %.2f%% difference", 100*rel)
	}
	if withSetup.SetupTimeS != 30 {
		t.Errorf("setup time %v", withSetup.SetupTimeS)
	}
}

func TestStrategyAffectsOutcome(t *testing.T) {
	base := miniConfig()
	lo := miniConfig()
	lo.NewStrategy = func() freqctl.Strategy { return freqctl.Static{MHz: 1005} }
	rb, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Run(lo)
	if err != nil {
		t.Fatal(err)
	}
	if rl.WallTimeS <= rb.WallTimeS {
		t.Error("down-scaled run should be slower")
	}
	if rl.GPUEnergyJ() >= rb.GPUEnergyJ() {
		t.Error("down-scaled run should use less GPU energy")
	}
	if rl.Report.Strategy != "static-1005" {
		t.Errorf("strategy label %q", rl.Report.Strategy)
	}
}

func TestTraceOption(t *testing.T) {
	cfg := miniConfig()
	cfg.Trace = true
	cfg.Steps = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("trace not recorded")
	}
	if len(res.StepBoundariesS) != 2 {
		t.Errorf("%d step boundaries", len(res.StepBoundariesS))
	}
	// Without the flag no trace is allocated.
	cfg.Trace = false
	res, _ = Run(cfg)
	if res.Trace != nil {
		t.Error("trace recorded without the flag")
	}
}

func TestEvrardRunsGravity(t *testing.T) {
	cfg := miniConfig()
	cfg.Sim = Evrard
	cfg.ParticlesPerRank = 8e6
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	grav := res.Report.FunctionTotal(FnGravity)
	if grav.Calls != cfg.Steps {
		t.Errorf("gravity called %d times", grav.Calls)
	}
	if grav.GPUJ <= 0 {
		t.Error("gravity consumed no energy")
	}
}

func TestLUMIRunUsesAMDPath(t *testing.T) {
	cfg := Config{
		System:           cluster.LUMIG(),
		Ranks:            2,
		Sim:              Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            2,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GPUEnergyJ() <= 0 {
		t.Error("AMD devices unmeasured (rsmi sensor path broken)")
	}
}

func TestWeakScalingOverheadGrows(t *testing.T) {
	// More ranks, same per-rank work: collectives and imbalance make the
	// run slightly slower — the Fig. 3 weak-scaling shape.
	small := Config{System: cluster.CSCSA100(), Ranks: 4, Sim: Turbulence, ParticlesPerRank: 20e6, Steps: 3}
	large := small
	large.Ranks = 16
	rs, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Run(large)
	if err != nil {
		t.Fatal(err)
	}
	if rl.WallTimeS <= rs.WallTimeS {
		t.Errorf("16-rank run (%v s) not slower than 4-rank (%v s)", rl.WallTimeS, rs.WallTimeS)
	}
	if rl.WallTimeS > rs.WallTimeS*1.3 {
		t.Errorf("weak-scaling overhead implausibly large: %v vs %v", rl.WallTimeS, rs.WallTimeS)
	}
}

func TestCustomPipeline(t *testing.T) {
	pipeline := []FuncModel{
		{Name: "StencilSweep", FlopsPerPart: 60, BytesPerPart: 200, Launches: 1,
			ItemFraction: 1, EffNvidia: 0.5, EffAMD: 0.4, CPUUtil: 0.05, MemUtil: 0.3},
		{Name: "Reduce", FlopsPerPart: 8, BytesPerPart: 24, Launches: 1,
			ItemFraction: 1, EffNvidia: 0.5, EffAMD: 0.4, CPUUtil: 0.1, MemUtil: 0.1,
			Comm: CommAllreduce},
	}
	cfg := miniConfig()
	cfg.Sim = Custom
	cfg.CustomPipeline = pipeline
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := res.Report.FunctionNames()
	if len(names) != 2 || names[0] != "StencilSweep" || names[1] != "Reduce" {
		t.Errorf("custom functions = %v", names)
	}
	if res.Report.FunctionTotal("StencilSweep").GPUJ <= 0 {
		t.Error("custom kernel not measured")
	}
	// Custom without a pipeline is rejected.
	cfg.CustomPipeline = nil
	if _, err := Run(cfg); err == nil {
		t.Error("Custom without CustomPipeline accepted")
	}
}

func TestHostOverheadScale(t *testing.T) {
	a := miniConfig()
	b := miniConfig()
	b.HostOverheadScale = 3
	ra, _ := Run(a)
	rb, _ := Run(b)
	if rb.WallTimeS <= ra.WallTimeS {
		t.Error("scaling host overheads up should slow the run")
	}
}

func TestKeepSeries(t *testing.T) {
	cfg := miniConfig()
	cfg.KeepSeries = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, mean, _, ok := res.Report.Ranks[0].SeriesStats(FnMomentum)
	if !ok || n != cfg.Steps {
		t.Fatalf("series n=%d ok=%v, want %d entries", n, ok, cfg.Steps)
	}
	if mean <= 0 {
		t.Error("empty series values")
	}
}

// The runner works out a phase's host energy once per node and hands every
// rank of the node the same three shares. They are, to the bit, what each
// rank used to compute for itself — its node's CPU, memory and auxiliary
// counters after the phase minus before it, over the ranks per node —
// replayed here on a twin allocation of two two-package nodes from the
// phase times the run recorded.
func TestHostEnergySharesMatchPerRankExpression(t *testing.T) {
	cfg := Config{System: cluster.MiniHPC(), Ranks: 4, Sim: Evrard,
		ParticlesPerRank: 10e6, Steps: 6, Seed: 3, KeepSeries: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin := cluster.NewSystem(cfg.System, cfg.System.NodesForRanks(cfg.Ranks))
	if len(twin.Nodes) != 2 || len(twin.Nodes[0].CPUs) != 2 {
		t.Fatalf("want 2 nodes of 2 packages, have %d nodes", len(twin.Nodes))
	}
	rpn := float64(twin.RanksPerNode())
	type shares struct{ cpuJ, memJ, otherJ float64 }
	want := make([]map[string]*shares, cfg.Ranks)
	for r := range want {
		want[r] = map[string]*shares{}
	}
	cpu0, mem0, aux0 := make([]float64, 2), make([]float64, 2), make([]float64, 2)
	for step := 0; step < cfg.Steps; step++ {
		for _, fn := range EvrardPipeline() {
			phaseS := res.Report.Ranks[0].Series[fn.Name][step]
			for i, n := range twin.Nodes {
				cpu0[i], mem0[i], aux0[i] = n.CPUEnergyJ(), n.Mem.Meter.EnergyJ(), n.Aux.EnergyJ()
				n.AdvanceHost(phaseS, fn.CPUUtil, fn.MemUtil)
			}
			for r := 0; r < cfg.Ranks; r++ {
				ni := r / twin.RanksPerNode()
				w := want[r][fn.Name]
				if w == nil {
					w = &shares{}
					want[r][fn.Name] = w
				}
				w.cpuJ += (twin.Nodes[ni].CPUEnergyJ() - cpu0[ni]) / rpn
				w.memJ += (twin.Nodes[ni].Mem.Meter.EnergyJ() - mem0[ni]) / rpn
				w.otherJ += (twin.Nodes[ni].Aux.EnergyJ() - aux0[ni]) / rpn
			}
		}
	}
	for r, rp := range res.Report.Ranks {
		for name, w := range want[r] {
			if st := rp.Get(name); st.CPUJ != w.cpuJ || st.MemJ != w.memJ || st.OtherJ != w.otherJ {
				t.Errorf("rank %d %s: host energy %v/%v/%v J, per-rank expression %v/%v/%v J",
					r, name, st.CPUJ, st.MemJ, st.OtherJ, w.cpuJ, w.memJ, w.otherJ)
			}
		}
	}
}

// failingStrategy errors on Apply after a few calls, exercising the
// runner's error propagation from rank goroutines.
type failingStrategy struct{ calls int }

func (f *failingStrategy) Name() string               { return "failing" }
func (f *failingStrategy) Setup(freqctl.Setter) error { return nil }
func (f *failingStrategy) Apply(freqctl.Setter, string) error {
	f.calls++
	if f.calls > 3 {
		return errFail
	}
	return nil
}

var errFail = fmt.Errorf("injected strategy failure")

func TestStrategyErrorPropagates(t *testing.T) {
	cfg := miniConfig()
	cfg.NewStrategy = func() freqctl.Strategy { return &failingStrategy{} }
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("strategy failure swallowed")
	}
	if !strings.Contains(err.Error(), "injected strategy failure") {
		t.Errorf("error %v does not carry the cause", err)
	}
}

// The phase loop allocates nothing: what a run allocates is set-up (per rank,
// per node) and does not grow with the step count, whatever ranks ×
// functions a step covers.
func TestRunPhaseLoopAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		ranks int
		sim   SimKind
	}{{1, Turbulence}, {2, Evrard}, {16, Turbulence}} {
		allocs := func(steps int) float64 {
			return testing.AllocsPerRun(3, func() {
				_, err := Run(Config{System: cluster.CSCSA100(), Ranks: c.ranks, Sim: c.sim,
					ParticlesPerRank: 10e6, Steps: steps})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
		// Forty more steps are 400+ more phases of up to 16 ranks; the slack
		// of 2 covers size-class rounding of the step-bounds slice. Mallocs
		// are counted process-wide, and an attempt abandoned by an earlier
		// test (the watchdog-stall one) may still be finishing in the
		// background, so a polluted measurement is repeated: stray
		// allocations come and go, the loop's own would be in every attempt.
		var short, long float64
		for attempt := 0; attempt < 5; attempt++ {
			if short, long = allocs(4), allocs(44); long-short <= 2 {
				break
			}
		}
		if long-short > 2 {
			t.Errorf("%d ranks %s: %v allocations at 4 steps, %v at 44 — the loop allocates per step",
				c.ranks, c.sim, short, long)
		}
	}
}
