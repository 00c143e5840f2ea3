package sphenergy

import (
	"testing"
)

func TestRunThroughFacade(t *testing.T) {
	res, err := Run(Config{
		System:           MiniHPC(),
		Ranks:            1,
		Sim:              Turbulence,
		ParticlesPerRank: 8e6,
		Steps:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WallTimeS <= 0 || res.GPUEnergyJ() <= 0 {
		t.Error("empty result")
	}
}

func TestSystemByName(t *testing.T) {
	spec, err := SystemByName("lumi-g")
	if err != nil || spec.Name != "LUMI-G" {
		t.Errorf("SystemByName: %v %v", spec.Name, err)
	}
	if _, err := SystemByName("frontier"); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestStrategyFactories(t *testing.T) {
	for name, mk := range map[string]func() Strategy{
		"baseline":    Baseline(),
		"static-1005": StaticMHz(1005),
		"dvfs":        DVFS(),
		"mandyn":      ManDyn(map[string]int{"XMass": 1005}),
	} {
		s := mk()
		if s == nil {
			t.Fatalf("%s factory returned nil", name)
		}
		if s.Name() != name {
			t.Errorf("strategy name %q, want %q", s.Name(), name)
		}
	}
}

func TestTuneFrequencies(t *testing.T) {
	table, err := TuneFrequenciesObserved(MiniHPC(), Turbulence, 450*450*450, 150, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != 10 {
		t.Fatalf("table has %d entries", len(table))
	}
	if table["MomentumEnergy"] < table["XMass"] {
		t.Error("compute-bound kernel tuned below memory-bound kernel")
	}
	// The table plugs straight into ManDyn.
	res, err := Run(Config{
		System:           MiniHPC(),
		Ranks:            1,
		Sim:              Turbulence,
		ParticlesPerRank: 8e6,
		Steps:            2,
		NewStrategy:      ManDyn(table),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Strategy != "mandyn" {
		t.Errorf("strategy %q", res.Report.Strategy)
	}
}
