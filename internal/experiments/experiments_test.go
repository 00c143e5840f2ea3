package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sphenergy/internal/core"
)

// testScale shrinks step counts for test runtime; shapes are invariant.
const testScale = 0.1

func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			r, err := Run(name, testScale)
			if err != nil {
				t.Fatal(err)
			}
			out := r.Render()
			if len(out) < 40 {
				t.Errorf("suspiciously short render:\n%s", out)
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunRefusesScale(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Run("table1", scale); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
}

func TestTableIContent(t *testing.T) {
	data := TableI()
	if len(data.Simulations) != 2 || len(data.Systems) != 3 {
		t.Fatal("Table I dimensions")
	}
	out := data.Render()
	for _, want := range []string{
		"Subsonic Turbulence", "Evrard Collapse",
		"LUMI-G", "CSCS-A100", "miniHPC",
		"150 M particles/GPU", "80 M particles/GPU",
		"1410", "1700", "1593", "1600",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
	// Rank counts: 14.7 B turbulence particles at 150 M/GPU = 98 GPUs.
	if got := data.Simulations[0].RanksFor(14.7); got != 98 {
		t.Errorf("RanksFor(14.7B) = %d, want 98", got)
	}
}

func TestFig1Shape(t *testing.T) {
	d := Fig1()
	if len(d.Points) < 5 {
		t.Fatal("too few implementations")
	}
	// CUDA is both fastest and most energy-efficient (the figure's point).
	first := d.Points[0]
	if !strings.Contains(first.Implementation, "CUDA") {
		t.Errorf("fastest implementation %q, want CUDA", first.Implementation)
	}
	for _, p := range d.Points[1:] {
		if p.EnergyKWh <= first.EnergyKWh {
			t.Errorf("%s should consume more energy than CUDA", p.Implementation)
		}
	}
}

func TestFig2TunedFrequencies(t *testing.T) {
	d, err := Fig2(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 10 {
		t.Fatalf("%d rows", len(d.Rows))
	}
	me := d.BestFor(core.FnMomentum)
	iad := d.BestFor(core.FnIAD)
	xm := d.BestFor(core.FnXMass)
	if me < 1350 {
		t.Errorf("MomentumEnergy tuned to %d MHz, want >= 1350 (most compute-bound)", me)
	}
	if iad < 1300 {
		t.Errorf("IAD tuned to %d MHz, want >= 1300", iad)
	}
	if xm > 1110 {
		t.Errorf("XMass tuned to %d MHz, want <= 1110 (paper: light kernels tune low)", xm)
	}
	for _, r := range d.Rows {
		if r.BestMHz < d.MinMHz || r.BestMHz > d.MaxMHz {
			t.Errorf("%s tuned outside the search range: %d", r.Function, r.BestMHz)
		}
		if len(r.Sweep) == 0 {
			t.Errorf("%s has no sweep data", r.Function)
		}
	}
}

func TestFig3PMTvsSlurm(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-allocation campaign")
	}
	d, err := Fig3(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Series) != 2 {
		t.Fatal("want CSCS and LUMI series")
	}
	for _, s := range d.Series {
		if len(s.Points) != 6 {
			t.Errorf("%s: %d points", s.System, len(s.Points))
		}
		for _, p := range s.Points {
			if p.PMTJ >= p.SlurmJ {
				t.Errorf("%s %d GPUs: PMT %.0f >= Slurm %.0f (PMT must exclude setup)",
					s.System, p.GPUs, p.PMTJ, p.SlurmJ)
			}
		}
		// Strong match: the gap stays below 15% even at this reduced scale
		// (at full scale it is a few percent).
		if gap := s.MaxRelativeGap(); gap > 0.15 {
			t.Errorf("%s: max PMT/Slurm gap %.3f too large", s.System, gap)
		}
		// Weak scaling: energy grows with allocation size.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].SlurmJ <= s.Points[i-1].SlurmJ {
				t.Errorf("%s: energy not increasing with GPUs", s.System)
			}
		}
	}
}

func TestFig6SmallProblemsBenefitMore(t *testing.T) {
	if testing.Short() {
		t.Skip("frequency x size sweep")
	}
	d, err := Fig6(testScale)
	if err != nil {
		t.Fatal(err)
	}
	small, ok1 := d.SeriesFor(200)
	large, ok2 := d.SeriesFor(450)
	if !ok1 || !ok2 {
		t.Fatal("missing series")
	}
	// At the lowest frequency the small problem gains more EDP than the
	// large one (underutilized GPU, §IV-C).
	sLast := small.Points[len(small.Points)-1].EDPNorm
	lLast := large.Points[len(large.Points)-1].EDPNorm
	if sLast >= lLast {
		t.Errorf("200^3 EDP at 1005 (%.4f) should be below 450^3's (%.4f)", sLast, lLast)
	}
	if small.BestMHz > large.BestMHz {
		t.Errorf("200^3 best %d MHz should not exceed 450^3 best %d MHz", small.BestMHz, large.BestMHz)
	}
	// EDP at the best frequency is below baseline for every size.
	for _, s := range d.Series {
		for _, p := range s.Points {
			if p.MHz == s.BestMHz && p.EDPNorm >= 1 {
				t.Errorf("%d^3: best frequency does not improve EDP", s.NSide)
			}
		}
	}
}

func TestFig7StrategyComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("full strategy sweep")
	}
	d, err := Fig7(testScale)
	if err != nil {
		t.Fatal(err)
	}
	md, ok := d.Row("mandyn")
	if !ok {
		t.Fatal("mandyn row missing")
	}
	if md.TimeNorm > 1.055 || md.TimeNorm < 1.0 {
		t.Errorf("ManDyn time %.4f, want (1.0, 1.055] (paper: 1.0295)", md.TimeNorm)
	}
	if md.EnergyNorm > 0.96 || md.EnergyNorm < 0.88 {
		t.Errorf("ManDyn energy %.4f, want [0.88, 0.96] (paper: ~0.92)", md.EnergyNorm)
	}
	st, _ := d.Row("static-1005")
	if md.EDPNorm >= st.EDPNorm {
		t.Errorf("ManDyn EDP %.4f should beat static-1005 %.4f", md.EDPNorm, st.EDPNorm)
	}
	dv, _ := d.Row("dvfs")
	if dv.EnergyNorm <= 1.0 {
		t.Errorf("DVFS energy %.4f, want > 1", dv.EnergyNorm)
	}
	if dv.TimeNorm > 1.06 {
		t.Errorf("DVFS time %.4f, want ~1", dv.TimeNorm)
	}
	// Static series: time increases monotonically as frequency drops.
	prev := 1.0
	for _, mhz := range []int{1380, 1335, 1275, 1230, 1170, 1110, 1050, 1005} {
		row, ok := d.Row(fmt.Sprintf("static-%d", mhz))
		if !ok {
			t.Fatalf("missing static-%d", mhz)
		}
		if row.TimeNorm < prev {
			t.Errorf("static-%d time %.4f below the previous frequency's", mhz, row.TimeNorm)
		}
		prev = row.TimeNorm
	}
}

func TestFig8PerFunctionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("frequency sweep per function")
	}
	d, err := Fig8(testScale)
	if err != nil {
		t.Fatal(err)
	}
	me, ok := d.CellFor(core.FnMomentum, 1005)
	if !ok {
		t.Fatal("MomentumEnergy@1005 missing")
	}
	if me.TimeNorm < 1.20 {
		t.Errorf("ME time at 1005 = %.3f, want > 1.20", me.TimeNorm)
	}
	if me.EnergyNorm < 0.80 || me.EnergyNorm > 0.92 {
		t.Errorf("ME energy at 1005 = %.3f, want [0.80, 0.92]", me.EnergyNorm)
	}
	xm, _ := d.CellFor(core.FnXMass, 1005)
	if xm.EDPNorm > 0.95 {
		t.Errorf("XMass EDP at 1005 = %.3f, want <= 0.95", xm.EDPNorm)
	}
	// Baseline column is exactly 1.
	for _, fn := range d.Functions {
		c := fn.Cells[0]
		if c.MHz != 1410 || c.TimeNorm != 1 || c.EnergyNorm != 1 {
			t.Errorf("%s baseline cell not normalized: %+v", fn.Name, c)
		}
	}
}

func TestFig9DVFSTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("10-step trace run")
	}
	d, err := Fig9(1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Trace.Len() == 0 {
		t.Fatal("empty trace")
	}
	if len(d.StepBoundariesS) != 10 {
		t.Errorf("%d step boundaries, want 10", len(d.StepBoundariesS))
	}
	me := d.MeanClockMHz[core.FnMomentum]
	dd := d.MeanClockMHz[core.FnDomainDecomp]
	if me < 1380 {
		t.Errorf("MomentumEnergy mean clock %.0f, want ~1410 (boosts to max)", me)
	}
	if dd > me-150 {
		t.Errorf("DomainDecompAndSync mean clock %.0f should sit well below MomentumEnergy's %.0f", dd, me)
	}
	if dd < 1000 || dd > 1300 {
		t.Errorf("DomainDecompAndSync mean clock %.0f, want ~1200 (paper Fig. 9)", dd)
	}
	// Step-boundary communication lets the clock dip below 1000 MHz.
	if d.MinClockMHz >= 1000 {
		t.Errorf("min clock %d, want dips below 1000 MHz", d.MinClockMHz)
	}
	if d.MaxClockMHz != 1410 {
		t.Errorf("max clock %d, want 1410", d.MaxClockMHz)
	}
}

func TestExtAMDManDynWins(t *testing.T) {
	if testing.Short() {
		t.Skip("8-GCD node runs")
	}
	d, err := ExtAMD(testScale)
	if err != nil {
		t.Fatal(err)
	}
	md, ok := d.Row("mandyn")
	if !ok {
		t.Fatal("mandyn row missing")
	}
	if md.EnergyNorm >= 1 {
		t.Errorf("ManDyn on AMD energy %.4f, want < 1", md.EnergyNorm)
	}
	if md.EDPNorm >= 1 {
		t.Errorf("ManDyn on AMD EDP %.4f, want < 1", md.EDPNorm)
	}
	st, _ := d.Row("static-1000")
	if md.EDPNorm >= st.EDPNorm {
		t.Error("ManDyn should beat deep static down-scaling on AMD too")
	}
	// The AMD pipeline is heavily compute-bound (low code maturity), so
	// MomentumEnergy must tune to the maximum clock.
	if d.Table[core.FnMomentum] != 1700 {
		t.Errorf("ME tuned to %d on MI250X, want 1700", d.Table[core.FnMomentum])
	}
}

func TestFig4Fig5Bands(t *testing.T) {
	if testing.Short() {
		t.Skip("32-rank cross-system runs")
	}
	f4, err := Fig4(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(f4.Breakdowns) != 4 {
		t.Fatal("want 4 breakdowns")
	}
	for _, b := range f4.Breakdowns {
		if s := b.GPUJ / b.TotalJ(); s < 0.65 || s > 0.85 {
			t.Errorf("%s GPU share %.3f, want [0.65, 0.85]", b.Label, s)
		}
		if strings.HasPrefix(b.Label, "LUMI") && !b.MemorySeparate {
			t.Errorf("%s should report memory separately", b.Label)
		}
		if strings.HasPrefix(b.Label, "CSCS") && b.MemorySeparate {
			t.Errorf("%s should fold memory into Other (§IV-B)", b.Label)
		}
	}

	f5, err := Fig5(testScale)
	if err != nil {
		t.Fatal(err)
	}
	lumi := f5.ShareOf("LUMI-Turb", core.FnMomentum)
	cscs := f5.ShareOf("CSCS-A100-Turb", core.FnMomentum)
	if lumi <= cscs+0.10 {
		t.Errorf("ME share LUMI %.3f vs CSCS %.3f, want LUMI larger by >= 10pp", lumi, cscs)
	}
	for _, b := range f5.Breakdowns {
		top := b.TopConsumers(2)
		if top[0] != core.FnMomentum {
			t.Errorf("%s: top consumer %q, want MomentumEnergy", b.Label, top[0])
		}
	}
}

func TestExtPowerCapManDynWins(t *testing.T) {
	if testing.Short() {
		t.Skip("strategy sweep")
	}
	d, err := ExtPowerCap(testScale)
	if err != nil {
		t.Fatal(err)
	}
	md, ok := d.Row("mandyn")
	if !ok {
		t.Fatal("mandyn row missing")
	}
	for _, r := range d.Rows {
		if !strings.HasPrefix(r.Name, "powercap-") {
			continue
		}
		if md.EDPNorm >= r.EDPNorm {
			t.Errorf("ManDyn EDP %.4f should beat %s EDP %.4f (targeted vs uniform derating)",
				md.EDPNorm, r.Name, r.EDPNorm)
		}
		// Tighter caps slow the run.
		if r.TimeNorm < 1.0 {
			t.Errorf("%s time %.4f below baseline", r.Name, r.TimeNorm)
		}
	}
}

func TestFig7ParetoFront(t *testing.T) {
	if testing.Short() {
		t.Skip("full strategy sweep")
	}
	d, err := Fig7(testScale)
	if err != nil {
		t.Fatal(err)
	}
	front := d.ParetoOptimal()
	onFront := func(name string) bool {
		for _, n := range front {
			if n == name {
				return true
			}
		}
		return false
	}
	if !onFront("mandyn") {
		t.Errorf("ManDyn not Pareto-optimal: front = %v", front)
	}
	if !onFront("baseline-1410") {
		t.Errorf("the fastest configuration must be on the front: %v", front)
	}
	if onFront("dvfs") {
		t.Errorf("DVFS (slower AND more energy) should be dominated: %v", front)
	}
}
