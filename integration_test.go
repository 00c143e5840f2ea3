package sphenergy

// Integration tests exercising the full stack across module boundaries:
// tuner -> strategy -> runner -> sensors -> Slurm accounting ->
// pm_counters -> analysis, plus the real SPH solver driving multi-step
// physics — the end-to-end paths a downstream user depends on.

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/gravity"
	"sphenergy/internal/initcond"
	"sphenergy/internal/instr"
	"sphenergy/internal/pmcounters"
	"sphenergy/internal/report"
	"sphenergy/internal/slurm"
	"sphenergy/internal/sph"
)

// TestFullWorkflowTuneRunReport is the paper's complete workflow: tune
// per-kernel frequencies, run ManDyn against a baseline, write and re-read
// the report, derive the analysis breakdowns.
func TestFullWorkflowTuneRunReport(t *testing.T) {
	system := MiniHPC()
	table, err := TuneFrequenciesObserved(system, Turbulence, 450*450*450, 150, nil)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		System:           system,
		Ranks:            2,
		Sim:              Turbulence,
		ParticlesPerRank: 450 * 450 * 450,
		Steps:            10,
	}
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NewStrategy = ManDyn(table)
	md, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The tuned strategy saves GPU energy on the multi-rank run too.
	if md.GPUEnergyJ() >= base.GPUEnergyJ() {
		t.Errorf("ManDyn energy %v not below baseline %v", md.GPUEnergyJ(), base.GPUEnergyJ())
	}
	if md.WallTimeS > base.WallTimeS*1.06 {
		t.Errorf("ManDyn time %v too far above baseline %v", md.WallTimeS, base.WallTimeS)
	}

	// Report roundtrip through JSON and CSV.
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "mandyn.json")
	if err := md.Report.WriteFile(jsonPath); err != nil {
		t.Fatal(err)
	}
	back, err := instr.ReadReportFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if back.Strategy != "mandyn" || len(back.Ranks) != 2 {
		t.Error("report metadata lost through JSON")
	}
	var csvBuf bytes.Buffer
	if err := md.Report.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvBuf.String(), "MomentumEnergy") {
		t.Error("CSV export lost function rows")
	}

	// Analysis layer over the loaded report.
	db := report.NewDeviceBreakdown(back, system, "integration")
	if db.TotalJ() <= 0 || db.GPUJ <= 0 {
		t.Error("device breakdown empty")
	}
	fb := report.NewFunctionBreakdown(back, "integration")
	if fb.TopConsumers(1)[0] != core.FnMomentum {
		t.Errorf("top consumer %v", fb.TopConsumers(1))
	}
}

// TestSlurmPMCountersConsistency submits a job, then cross-checks three
// independent accounting paths: Slurm TRES, the instrumentation report,
// and the node-level Cray pm_counters.
func TestSlurmPMCountersConsistency(t *testing.T) {
	mgr := slurm.NewManager()
	job, err := mgr.Submit(core.Config{
		System:           cluster.CSCSA100(),
		Ranks:            4,
		Sim:              core.Turbulence,
		ParticlesPerRank: 50e6,
		Steps:            10,
	}, slurm.SubmitOptions{
		JobName: "consistency",
		SetupS:  20,
		TRES:    slurm.ParseTRES("billing,cpu,energy,gres/gpu"),
	})
	if err != nil {
		t.Fatal(err)
	}

	// pm_counters node totals must sum to the Slurm ConsumedEnergy (one
	// node here, counters quantized at 10 Hz).
	var pmTotal float64
	for _, node := range job.Result.System.Nodes {
		pmTotal += pmcounters.New(node).Energy()
	}
	rel := math.Abs(pmTotal-job.ConsumedEnergyJ) / job.ConsumedEnergyJ
	if rel > 0.01 {
		t.Errorf("pm_counters total %v vs Slurm %v (%.2f%% off)", pmTotal, job.ConsumedEnergyJ, 100*rel)
	}

	// The instrumentation report equals Slurm minus the setup phase.
	loop := job.Result.Report.TotalEnergyJ
	if math.Abs(loop+job.Result.SetupEnergyJ-job.ConsumedEnergyJ) > 1e-6*job.ConsumedEnergyJ {
		t.Error("loop + setup != consumed energy")
	}

	// Per-card readings reconcile with the per-rank GPU sums.
	node := job.Result.System.Nodes[0]
	var cardSum, devSum float64
	for c := 0; c < node.NumCards(); c++ {
		cardSum += node.CardEnergyJ(c)
	}
	for _, d := range node.Devices {
		devSum += d.EnergyJ()
	}
	if math.Abs(cardSum-devSum) > 1e-6*devSum {
		t.Errorf("card sum %v != device sum %v", cardSum, devSum)
	}
}

// TestPhysicsPipelineMultiStep integrates the real SPH solver for several
// steps and checks global conservation properties across module
// boundaries (initcond -> sph -> gravity).
func TestPhysicsPipelineMultiStep(t *testing.T) {
	p, opt := initcond.Turbulence(initcond.DefaultTurbulence(12))
	opt.NgTarget = 32
	st := sph.NewState(p, opt)
	e0 := st.ComputeEnergies(nil)
	for i := 0; i < 8; i++ {
		st.FindNeighbors()
		st.XMass()
		st.NormalizationGradh()
		st.EquationOfState()
		st.IADVelocityDivCurl()
		st.AVSwitches(st.Dt)
		st.MomentumEnergy()
		st.UpdateQuantities(st.Timestep())
	}
	e := st.ComputeEnergies(nil)
	if math.Abs(e.Mass-e0.Mass) > 1e-12 {
		t.Errorf("mass drifted: %v -> %v", e0.Mass, e.Mass)
	}
	// Momentum stays near zero (initcond removes bulk motion; forces
	// conserve it).
	mom := math.Abs(e.MomX) + math.Abs(e.MomY) + math.Abs(e.MomZ)
	if mom > 1e-10 {
		t.Errorf("net momentum grew to %v", mom)
	}
	// Subsonic box: kinetic energy decays or holds, never explodes.
	if e.Kinetic > e0.Kinetic*1.2 {
		t.Errorf("kinetic energy grew: %v -> %v", e0.Kinetic, e.Kinetic)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEvrardCollapseEnergyBudget runs the gravity-coupled pipeline and
// checks the collapse converts potential energy while approximately
// conserving the total.
func TestEvrardCollapseEnergyBudget(t *testing.T) {
	p, opt := initcond.Evrard(initcond.DefaultEvrard(12))
	opt.NgTarget = 32
	st := sph.NewState(p, opt)
	pot := make([]float64, p.N)
	tree := gravity.Build(p.X, p.Y, p.Z, p.M, opt.GravTheta, opt.GravEps, opt.GravG)
	tree.AccelerationsInto(p.AX, p.AY, p.AZ, pot)
	e0 := st.ComputeEnergies(pot)
	for i := 0; i < 20; i++ {
		st.FindNeighbors()
		st.XMass()
		st.NormalizationGradh()
		st.EquationOfState()
		st.IADVelocityDivCurl()
		st.AVSwitches(st.Dt)
		st.MomentumEnergy()
		tree = gravity.Build(p.X, p.Y, p.Z, p.M, opt.GravTheta, opt.GravEps, opt.GravG)
		tree.AccelerationsInto(p.AX, p.AY, p.AZ, pot)
		st.UpdateQuantities(st.Timestep())
	}
	e := st.ComputeEnergies(pot)
	if e.Kinetic <= e0.Kinetic {
		t.Error("collapse generated no kinetic energy")
	}
	if e.Potential >= e0.Potential {
		t.Error("potential did not deepen during collapse")
	}
	drift := math.Abs(e.Total()-e0.Total()) / math.Abs(e0.Total())
	if drift > 0.05 {
		t.Errorf("total energy drifted %.1f%% in 20 steps", 100*drift)
	}
}
