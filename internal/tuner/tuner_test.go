package tuner

import (
	"testing"

	"sphenergy/internal/gpusim"
)

func computeBound() gpusim.KernelDesc {
	return gpusim.KernelDesc{Items: 50e6, FlopsPerItem: 30000, BytesPerItem: 600, EffFactor: 0.5}
}

func memoryBound() gpusim.KernelDesc {
	return gpusim.KernelDesc{Items: 50e6, FlopsPerItem: 100, BytesPerItem: 4000, EffFactor: 0.5}
}

func baseCfg() Config {
	return Config{
		Spec:   gpusim.A100PCIE40GB(),
		Params: Params{MinMHz: 1005, MaxMHz: 1410},
	}
}

func TestBruteForceCoversSpace(t *testing.T) {
	res, err := TuneKernel("k", computeBound(), baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	// 1005..1410 in 15 MHz steps = 28 clocks.
	if len(res.All) != 28 {
		t.Errorf("evaluated %d configurations, want 28", len(res.All))
	}
	if res.Evaluations != 28 {
		t.Errorf("Evaluations = %d", res.Evaluations)
	}
	// Results sorted by descending frequency.
	for i := 1; i < len(res.All); i++ {
		if res.All[i].MHz >= res.All[i-1].MHz {
			t.Fatal("All not sorted by descending MHz")
		}
	}
}

func TestBestIsGlobalMinimum(t *testing.T) {
	res, err := TuneKernel("k", memoryBound(), baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.All {
		if m.Score < res.Best.Score {
			t.Fatalf("Best %v not the minimum (found %v at %d MHz)", res.Best.Score, m.Score, m.MHz)
		}
	}
}

func TestEDPObjectiveSeparatesKernelClasses(t *testing.T) {
	// The Fig. 2 result: compute-bound kernels tune to high clocks,
	// memory-bound kernels to low clocks.
	cb, err := TuneKernel("compute", computeBound(), baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	mb, err := TuneKernel("memory", memoryBound(), baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if cb.Best.MHz < 1300 {
		t.Errorf("compute-bound best %d MHz, want >= 1300", cb.Best.MHz)
	}
	if mb.Best.MHz > 1110 {
		t.Errorf("memory-bound best %d MHz, want <= 1110", mb.Best.MHz)
	}
}

func TestTimeObjectivePicksMaxClock(t *testing.T) {
	cfg := baseCfg()
	cfg.Objective = TimeToSolution
	res, err := TuneKernel("k", computeBound(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.MHz != 1410 {
		t.Errorf("time objective best %d, want 1410", res.Best.MHz)
	}
}

func TestEnergyObjectivePicksLowerClockThanEDP(t *testing.T) {
	cfgEDP := baseCfg()
	cfgE := baseCfg()
	cfgE.Objective = EnergyToSolution
	k := computeBound()
	edp, _ := TuneKernel("k", k, cfgEDP)
	energy, _ := TuneKernel("k", k, cfgE)
	if energy.Best.MHz > edp.Best.MHz {
		t.Errorf("energy objective (%d) should tune at or below EDP objective (%d)",
			energy.Best.MHz, edp.Best.MHz)
	}
}

func TestParamsBoundTheCandidates(t *testing.T) {
	cfg := baseCfg()
	cfg.Params = Params{MinMHz: 1005, MaxMHz: 1035}
	res, err := TuneKernel("k", memoryBound(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != 3 || res.All[0].MHz != 1035 || res.All[2].MHz != 1005 {
		t.Errorf("evaluated %+v, want 1035, 1020 and 1005 MHz", res.All)
	}
	// Zero bounds mean the device's own: every supported clock.
	cfg.Params = Params{}
	if res, err = TuneKernel("k", memoryBound(), cfg); err != nil {
		t.Fatal(err)
	}
	if want := len(cfg.Spec.SupportedClocksMHz()); len(res.All) != want {
		t.Errorf("evaluated %d configurations, want all %d supported clocks", len(res.All), want)
	}
}

func TestEmptySearchSpace(t *testing.T) {
	cfg := baseCfg()
	cfg.Params = Params{MinMHz: 2000, MaxMHz: 3000}
	if _, err := TuneKernel("k", computeBound(), cfg); err == nil {
		t.Error("empty space accepted")
	}
}

func TestTuneTable(t *testing.T) {
	kernels := map[string]gpusim.KernelDesc{
		"compute": computeBound(),
		"memory":  memoryBound(),
	}
	table, results, err := TuneTable(kernels, baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != 2 || len(results) != 2 {
		t.Fatalf("table size %d", len(table))
	}
	if table["compute"] <= table["memory"] {
		t.Errorf("table ordering: compute %d should exceed memory %d",
			table["compute"], table["memory"])
	}
}

func TestMeasurementFieldsPopulated(t *testing.T) {
	res, err := TuneKernel("named", computeBound(), baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.All {
		if m.TimeS <= 0 || m.EnergyJ <= 0 || m.Score <= 0 {
			t.Fatalf("empty measurement at %d MHz: %+v", m.MHz, m)
		}
	}
}
